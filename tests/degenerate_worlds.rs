//! Failure injection: the pipeline must stay total on degenerate worlds —
//! minimum-size corpora, missing side boards, empty hash lists, and
//! everything-dead webs.

use ewhoring_core::pipeline::{Pipeline, PipelineOptions};
use worldgen::{World, WorldConfig};

fn run(config: WorldConfig) -> ewhoring_core::PipelineReport {
    let world = World::generate(config);
    Pipeline::new(PipelineOptions {
        k_key_actors: 5,
        ..PipelineOptions::default()
    })
    .run(&world)
}

#[test]
fn minimum_scale_world_runs() {
    // Every per-forum count clamps to its minimum.
    let report = run(WorldConfig {
        seed: 1,
        scale: 0.001,
        origin_domains: 40,
        csam_images: 1,
        with_side_boards: true,
    });
    assert_eq!(report.forums.len(), worldgen::FORUM_PROFILES.len());
    assert_eq!(report.cohorts.len(), 7);
    // Tiny worlds may legitimately produce zero proofs or zero packs; the
    // structures must still be present and consistent.
    assert_eq!(
        report.harvest.analysed,
        report.harvest.proofs.len() + report.harvest.not_proof
    );
}

#[test]
fn no_side_boards_world_runs() {
    let report = run(WorldConfig {
        with_side_boards: false,
        ..WorldConfig::test_scale(2)
    });
    // Without Currency Exchange / Bragging Rights the finance analyses
    // degrade gracefully to empty rather than panicking.
    assert_eq!(report.currency.threads, 0);
    assert!(!report.topcls.detected.is_empty());
    assert!(report.funnel.packs_downloaded > 0);
}

#[test]
fn empty_hashlist_world_runs() {
    let report = run(WorldConfig {
        csam_images: 0,
        ..WorldConfig::test_scale(3)
    });
    assert_eq!(report.safety.stage.summary.total_reports, 0);
    assert!(report.safety.stage.flagged.is_empty());
}

#[test]
fn pipeline_handles_empty_top_detection() {
    // A world whose eWhoring threads exist but where the classifier finds
    // nothing is simulated by running the crawl on an empty detection set;
    // the pipeline-level equivalent is a zero-TOP forum (BlackHatWorld),
    // which every other test covers. Here: crawl with no TOPs.
    let world = World::generate(WorldConfig::test_scale(4));
    let crawl = ewhoring_core::crawl::crawl_tops(&world.corpus, &world.catalog, &world.web, &[]);
    assert_eq!(crawl.total_tops, 0);
    assert!(crawl.previews.is_empty() && crawl.packs.is_empty());
    // Downstream stages accept the empty inputs.
    let prov = ewhoring_core::provenance::analyse_provenance(
        &world.index,
        &world.wayback,
        &world.origins,
        &[],
        &[],
        &[],
        1,
    );
    assert_eq!(prov.packs.total, 0);
    assert_eq!(prov.distinct_domains, 0);
    assert_eq!(prov.domain_tags.len(), 3);
}

#[test]
fn single_forum_metrics_hold() {
    // The smallest forums (min-clamped to a handful of threads) still get
    // Table 1 rows with consistent counts.
    let report = run(WorldConfig {
        seed: 5,
        scale: 0.002,
        origin_domains: 50,
        csam_images: 1,
        with_side_boards: true,
    });
    for row in &report.forums {
        assert!(row.posts >= row.threads, "{}", row.forum);
        assert!(row.tops <= row.threads, "{}", row.forum);
    }
}

/// Regression: at seed 5, scale 0.02 and 20 epochs, epoch 1 first-sights
/// a single thread — too few to draw an annotation sample from, which
/// used to panic the classifier bootstrap ("n_train 1 exceeds n 0"). The
/// bootstrap now waits for a later epoch: epoch 1 reports zero
/// detections, and every warm advance still equals a fresh recompute.
#[test]
fn first_epoch_too_small_to_bootstrap_defers_the_model() {
    use ewhoring_core::pipeline::{snapshot_json, EpochEngine, RunSpec};

    let spec = RunSpec {
        scale: 0.02,
        seed: 5,
        workers: 2,
        epochs: 20,
        upto: 1,
        ..RunSpec::default()
    };
    let world = World::generate(spec.world_config());
    let mut engine = EpochEngine::new(world, spec.epochs, spec.options());
    let first = engine.advance().expect("epoch 1 advances");
    assert!(engine.carry().topcls.model.is_none(), "nothing to train on");
    assert!(first.topcls.detected.is_empty());
    assert_eq!(first.topcls.ml_count + first.topcls.heuristic_count, 0);
    while engine.carry().topcls.model.is_none() && engine.epoch() < 6 {
        let warm = engine.advance().expect("advance");
        let fresh = engine.fresh_report().expect("fresh recompute");
        assert_eq!(
            snapshot_json(&warm).unwrap(),
            snapshot_json(&fresh).unwrap(),
            "epoch {} warm advance diverged from a fresh recompute",
            engine.epoch()
        );
    }
    assert!(
        engine.carry().topcls.model.is_some(),
        "a later epoch bootstraps the model"
    );
}
