//! Figures 12–13: offline mode — KMeans accuracy loss and space usage over
//! ingestion time, for `mab_mab` (AdaEdge) against the fixed
//! `lossless_lossy` pairs and the CodecDB baseline.
//!
//! The paper allocates 10 MB for 80 MB of ingested points (8× overcommit)
//! with a 0.8 recoding threshold; we keep the same overcommit at 1/8 the
//! absolute scale so the run finishes in seconds (shapes are
//! scale-invariant: what matters is budget pressure, not absolute bytes).
//!
//! Run: `cargo run --release -p adaedge-bench --bin fig12_offline_kmeans`

use adaedge_bench::{frozen_model, offline_ml_config, offline_ml_loss, ModelKind, SEGMENT_LEN};
use adaedge_codecs::{CodecId, CodecRegistry};
use adaedge_core::baselines::FixedPair;
use adaedge_core::OfflineAdaEdge;
use adaedge_datasets::{CbfConfig, CbfStream, SegmentSource};

/// ≈6× overcommit at reduced absolute scale (floor-limited, like the paper).
const BUDGET: usize = 1_400_000; // 1.4 MB
const TOTAL_SEGMENTS: usize = 1000; // ≈8.2 MB of raw doubles
const CHECKPOINTS: usize = 10;

fn stream() -> CbfStream {
    CbfStream::new(CbfConfig::default(), SEGMENT_LEN)
}

fn main() {
    let model = frozen_model(ModelKind::KMeans, 17);
    let checkpoint_every = TOTAL_SEGMENTS / CHECKPOINTS;
    println!(
        "Figures 12-13: offline KMeans accuracy loss over ingestion time\n\
         budget {} KB, ingesting {} KB raw (~6x overcommit), theta=0.8\n",
        BUDGET / 1000,
        TOTAL_SEGMENTS * SEGMENT_LEN * 8 / 1000
    );
    println!(
        "{:<22} {}",
        "method",
        (1..=CHECKPOINTS)
            .map(|c| format!("{:>8}", format!("t{}", c * 10)))
            .collect::<String>()
    );

    // mab_mab is the AdaEdge pipeline; each fixed pair (the figures' top
    // performers plus the weak ones) is the same pipeline with one arm per
    // roster, so every method runs the same cascade.
    let base = || offline_ml_config(BUDGET, &model);
    let pairs = [
        FixedPair::new(CodecId::Sprintz, CodecId::BuffLossy),
        FixedPair::new(CodecId::Gzip, CodecId::BuffLossy),
        FixedPair::new(CodecId::Snappy, CodecId::BuffLossy),
        FixedPair::new(CodecId::Gorilla, CodecId::BuffLossy),
        FixedPair::new(CodecId::Buff, CodecId::BuffLossy),
        FixedPair::new(CodecId::Sprintz, CodecId::Paa),
        FixedPair::new(CodecId::Sprintz, CodecId::Fft),
        FixedPair::new(CodecId::Sprintz, CodecId::Pla),
        FixedPair::new(CodecId::Sprintz, CodecId::RrdSample),
    ];
    let methods = std::iter::once(("mab_mab".to_string(), base()))
        .chain(pairs.iter().map(|p| (p.name(), p.offline_config(base()))));
    for (name, config) in methods {
        let mut edge = OfflineAdaEdge::new(config).expect("valid config");
        let mut src = stream();
        let mut row = String::new();
        let mut failed_at = None;
        for i in 0..TOTAL_SEGMENTS {
            if edge.ingest(&src.next_segment()).is_err() {
                failed_at = Some(i);
                break;
            }
            if (i + 1) % checkpoint_every == 0 {
                row.push_str(&format!("{:>8.4}", offline_ml_loss(&model, &edge)));
            }
        }
        match failed_at {
            None => println!("{:<22} {}", name, row),
            Some(i) => println!("{:<22} {} FAILED@{}", name, row, i),
        }
    }

    // CodecDB: lossless only — fails at the recoding budget.
    {
        let reg = CodecRegistry::new(4);
        let mut src = stream();
        let mut store = adaedge_storage::SegmentStore::with_budget(BUDGET);
        let mut failed_at = None;
        for i in 0..TOTAL_SEGMENTS {
            let data = src.next_segment();
            // CodecDB would commit to Sprintz on this data (see Fig 7).
            let block = reg.get(CodecId::Sprintz).compress(&data).unwrap();
            if store.put_compressed(block).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        println!(
            "{:<22} lossless only, no recoding path -> FAILED@{}",
            "codecdb(sprintz)",
            failed_at.expect("must exceed budget")
        );
    }

    println!(
        "\nexpected shape (paper): every pair bounds space, but accuracy loss \
         grows once recoding starts; mab_mab grows slowest (it picks \
         BUFF-lossy first, then switches to PAA when BUFF hits its floor); \
         CodecDB fails outright at the budget."
    );
}
