//! One benchmark per paper *table*: the cost of regenerating each from a
//! pre-built world. Criterion timings measure the pipeline stage that
//! produces the table; correctness lives in the test suites.

use criterion::{criterion_group, criterion_main, Criterion};
use ewhoring_bench::{bench_options, small_report, small_world};
use ewhoring_core::actors::{
    actor_metrics, cohort_table, group_profiles, interaction_graph, popularity, select_key_actors,
    KeyActorInputs,
};
use ewhoring_core::crawl::crawl_tops;
use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::finance::analyse_currency_exchange;
use ewhoring_core::provenance::analyse_provenance;
use ewhoring_core::report;
use ewhoring_core::topcls::classify_tops;
use std::collections::HashMap;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let world = small_world();
    let threads = extract_ewhoring_threads(&world.corpus).all_threads();
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);

    // Table 1: extraction over the whole corpus.
    group.bench_function("table1_extraction", |b| {
        b.iter(|| black_box(extract_ewhoring_threads(&world.corpus)).len())
    });

    // §4.1: annotate, train, evaluate, apply (drives the Table 1 TOPs
    // column).
    group.bench_function("table1_topcls_train_eval", |b| {
        b.iter(|| {
            let mut rng = synthrand::rng_from_seed(7);
            let (_, r) = classify_tops(&mut rng, world, &threads, 1);
            black_box(r.detected.len())
        })
    });

    // Tables 3/4: snowball + link extraction + crawl.
    let mut rng = synthrand::rng_from_seed(7);
    let (_, tops) = classify_tops(&mut rng, world, &threads, 1);
    group.bench_function("tables3_4_crawl", |b| {
        b.iter(|| {
            let r = crawl_tops(&world.corpus, &world.catalog, &world.web, &tops.detected);
            black_box(r.previews.len() + r.packs.len())
        })
    });

    // Table 5/6: reverse search + domain classification.
    let crawl = crawl_tops(&world.corpus, &world.catalog, &world.web, &tops.detected);
    let packs: Vec<ewhoring_core::provenance::PackForAnalysis> = crawl
        .packs
        .iter()
        .take(30)
        .map(|p| ewhoring_core::provenance::PackForAnalysis {
            thread: p.link.thread,
            posted: p.link.posted,
            images: p
                .images
                .iter()
                .take(9)
                .map(|img| ewhoring_core::nsfv::ImageMeasures::of(&img.render()))
                .collect(),
        })
        .collect();
    let authors: Vec<_> = crawl
        .packs
        .iter()
        .take(30)
        .map(|p| world.corpus.thread(p.link.thread).author)
        .collect();
    group.bench_function("tables5_6_reverse_search", |b| {
        b.iter(|| {
            let out = analyse_provenance(
                &world.index,
                &world.wayback,
                &world.origins,
                &packs,
                &authors,
                &[],
                1,
            );
            black_box(out.packs.matched)
        })
    });

    // Table 7: CE heading parse + aggregation.
    group.bench_function("table7_currency_exchange", |b| {
        b.iter(|| {
            let out = analyse_currency_exchange(&world.corpus, world.hackforums, &threads);
            black_box(out.threads)
        })
    });

    // Table 8: per-actor metrics + cohorts.
    group.bench_function("table8_cohorts", |b| {
        b.iter(|| {
            let m = actor_metrics(&world.corpus, &threads);
            black_box(cohort_table(&m).len())
        })
    });

    // Tables 9/10: graph + centrality + key actors + profiles.
    group.bench_function("tables9_10_key_actors", |b| {
        let metrics = actor_metrics(&world.corpus, &threads);
        let graph = interaction_graph(&world.corpus, &threads);
        let pop = popularity(&world.corpus, &threads);
        let packs_by_actor: HashMap<_, _> = HashMap::new();
        let earnings = world.truth.earnings_by_actor.clone();
        let ce: HashMap<_, _> = HashMap::new();
        b.iter(|| {
            let inputs = KeyActorInputs {
                metrics: &metrics,
                packs_by_actor: &packs_by_actor,
                earnings_by_actor: &earnings,
                popularity: &pop,
                graph: &graph,
                ce_by_actor: &ce,
            };
            let key = select_key_actors(&inputs, bench_options().k_key_actors, 1);
            black_box(group_profiles(&inputs, &key).len())
        })
    });

    // Rendering every table from a finished report (string assembly).
    let r = small_report();
    group.bench_function("render_all_tables", |b| {
        b.iter(|| {
            black_box(report::table1(r).len())
                + black_box(report::tables3_4(r).len())
                + black_box(report::table5(r).len())
                + black_box(report::table6(r).len())
                + black_box(report::table7(r).len())
                + black_box(report::table8(r).len())
                + black_box(report::table9(r).len())
                + black_box(report::table10(r).len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
