//! The flat-advance carry folds reproduce the batch artifacts exactly.
//!
//! `EpochEngine::advance` assembles the earnings analysis, the cohort
//! table, and the Currency Exchange marginals from carried counters
//! (`EarningsAgg`, `ActorFold`, the CE-thread ledgers) folded over only
//! each epoch's delta slice. These tests pin the other end of that
//! contract: the folded artifacts must serialize byte-for-byte equal to
//! a direct batch recomputation over the final streamed world, across
//! worker counts and epoch counts — including epochs=1, where the
//! "fold" is a single slice covering the whole timeline. A raw generated
//! world (ids in generation order, not chronological) pins the batch
//! schedule of the same actor survey.

use ewhoring_core::actors::{actor_metrics, cohort_table, interaction_graph, ActorFold};
use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::finance::{analyse_currency_exchange, analyse_earnings};
use ewhoring_core::pipeline::{stream_world, EpochEngine, Pipeline, PipelineOptions, StreamSpec};
use worldgen::{World, WorldConfig};

const SEED: u64 = 0xF01D;

/// Serializes an artifact for byte-level comparison. A macro rather
/// than a generic helper: the suite crate depends on `serde_json` but
/// not on `serde` itself, so the `Serialize` bound isn't nameable here.
macro_rules! json {
    ($artifact:expr) => {
        serde_json::to_string($artifact).expect("artifact serializes")
    };
}

#[test]
fn folded_artifacts_match_batch_recomputation_across_matrix() {
    for epochs in [1u32, 3, 6] {
        // Batch reference: re-derive the final streamed world directly
        // (the feed re-assigns chronological ids, so the raw generated
        // world would be id-shifted) and recompute each artifact the
        // non-stream way. Worker-independent, so computed once per
        // epoch count.
        let final_world = stream_world(
            World::generate(WorldConfig::test_scale(SEED)),
            StreamSpec {
                epochs,
                upto: epochs,
            },
        );
        let threads = extract_ewhoring_threads(&final_world.corpus).all_threads();
        let batch_cohorts = json!(&cohort_table(
            &actor_metrics(&final_world.corpus, &threads,)
        ));
        let batch_currency = json!(&analyse_currency_exchange(
            &final_world.corpus,
            final_world.hackforums,
            &threads,
        ));

        for workers in [1usize, 2, 7] {
            let options = PipelineOptions {
                workers,
                ..PipelineOptions::default()
            };
            let world = World::generate(WorldConfig::test_scale(SEED));
            let mut engine = EpochEngine::new(world, epochs, options);
            let report = engine
                .advance_to(epochs)
                .expect("advance")
                .expect("final epoch yields a report");
            let ctx = format!("workers={workers} epochs={epochs}");

            // Folded EarningsAgg vs one-shot analysis over the same
            // harvested proof list.
            assert!(report.earnings.actors > 0, "{ctx}: no earners");
            assert_eq!(
                json!(&report.earnings),
                json!(&analyse_earnings(&report.harvest)),
                "{ctx}: folded earnings diverged from analyse_earnings"
            );

            // Carried ActorFold counters vs batch actor_metrics.
            assert!(!report.cohorts.is_empty(), "{ctx}: empty cohort table");
            assert_eq!(
                json!(&report.cohorts),
                batch_cohorts,
                "{ctx}: folded cohorts diverged from batch actor_metrics"
            );

            // CE-thread ledger + per-actor tallies vs the batch Table 7
            // scan.
            assert_eq!(
                json!(&report.currency),
                batch_currency,
                "{ctx}: folded CE marginals diverged from batch scan"
            );
        }
    }
}

/// The batch schedule of the actor survey over a raw generated world,
/// whose ids follow generation order rather than the timeline: the
/// unsharded report's Table 8 and Table 7, and the survey's graph, must
/// equal the reference implementations.
#[test]
fn raw_world_survey_matches_batch_references() {
    let world = World::generate(WorldConfig::test_scale(SEED));
    let corpus = &world.corpus;
    let threads = extract_ewhoring_threads(corpus).all_threads();
    let report = Pipeline::new(PipelineOptions::default()).run(&world);

    assert!(!report.cohorts.is_empty());
    assert_eq!(
        json!(&report.cohorts),
        json!(&cohort_table(&actor_metrics(corpus, &threads))),
        "batch cohorts diverged from actor_metrics"
    );
    assert!(report.currency.threads > 0);
    assert_eq!(
        json!(&report.currency),
        json!(&analyse_currency_exchange(
            corpus,
            world.hackforums,
            &threads
        )),
        "batch Table 7 diverged from analyse_currency_exchange"
    );
    let survey = ActorFold::survey(corpus, &threads);
    assert!(survey.graph.edge_count() > 0);
    assert_eq!(
        json!(&survey.graph),
        json!(&interaction_graph(corpus, &threads)),
        "survey graph diverged from interaction_graph"
    );
}
