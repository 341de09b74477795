//! Journal-as-cache semantics of `core::pipeline::cache::RunCache`:
//! sequential reuse through the on-disk stage journal, single-flight
//! deduplication of concurrent identical requests, and run-key
//! isolation between different specs.

use ewhoring_core::pipeline::{
    snapshot_json, Pipeline, RunCache, RunSpec, RunStatus, SpecError, StageError, TimingSource,
};
use std::path::PathBuf;
use std::sync::Arc;
use worldgen::World;

fn tiny(seed: u64) -> RunSpec {
    RunSpec {
        scale: 0.01,
        seed,
        workers: 1,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ewhoring-runcache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The spec's report computed directly, without any cache or journal —
/// the ground truth a cached run must match byte-for-byte.
fn direct_snapshot(spec: &RunSpec) -> String {
    let world = World::generate(spec.world_config());
    let report = Pipeline::new(spec.options()).run(&world);
    snapshot_json(&report).expect("snapshot renders")
}

#[test]
fn second_identical_run_is_served_entirely_from_the_journal() {
    let dir = tmp_dir("sequential");
    let spec = tiny(0x5E0);

    // First run: a fresh cache over an empty journal computes every
    // stage.
    let first = RunCache::with_journal(&dir)
        .get_or_compute(&spec)
        .expect("first run");
    assert!(first.fresh);
    assert!(first
        .report
        .timings
        .iter()
        .filter(|t| t.stage != "journal")
        .all(|t| t.source == TimingSource::Computed));

    // Second run through a *new* cache (a restarted server, a later
    // batch invocation): every stage loads from the journal — 100%
    // `TimingSource::Journal` — and the snapshot is byte-identical.
    let second = RunCache::with_journal(&dir)
        .get_or_compute(&spec)
        .expect("second run");
    assert!(
        second
            .report
            .timings
            .iter()
            .all(|t| t.source == TimingSource::Journal),
        "expected every stage journal-loaded, got {:?}",
        second.report.timings
    );
    assert_eq!(
        snapshot_json(&first.report).expect("snapshot"),
        snapshot_json(&second.report).expect("snapshot"),
        "journal-served report must match the computed one"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_compute_exactly_once() {
    let cache = Arc::new(RunCache::in_memory());
    let spec = tiny(0xC0C0);

    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                scope.spawn(move || cache.get_or_compute(&spec).expect("run succeeds"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Single-flight: four racers, one pipeline execution.
    assert_eq!(cache.computed_runs(), 1);
    assert_eq!(runs.iter().filter(|r| r.fresh).count(), 1);
    // Everyone got the same shared report.
    for run in &runs[1..] {
        assert!(Arc::ptr_eq(&runs[0].report, &run.report));
    }
}

#[test]
fn different_seeds_get_distinct_keys_and_never_cross_contaminate() {
    let dir = tmp_dir("isolation");
    let a = tiny(0xAAAA);
    let b = tiny(0xBBBB);
    assert_ne!(a.run_key().unwrap(), b.run_key().unwrap());

    let cache = RunCache::with_journal(&dir);
    let run_a = cache.get_or_compute(&a).expect("run a");
    let run_b = cache.get_or_compute(&b).expect("run b");
    assert_eq!(cache.computed_runs(), 2, "distinct keys both compute");

    // Each cached report matches its own direct computation — serving
    // seed B never bled into seed A's artifacts (and vice versa).
    assert_eq!(
        snapshot_json(&run_a.report).expect("snapshot"),
        direct_snapshot(&a)
    );
    assert_eq!(
        snapshot_json(&run_b.report).expect("snapshot"),
        direct_snapshot(&b)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec whose pipeline fails comes back as the stage error instead of
/// a panic, and the failure is cached: asking again does not re-run the
/// pipeline.
#[test]
fn failing_run_returns_the_stage_error_and_is_cached() {
    let cache = RunCache::in_memory();
    let spec = RunSpec {
        corruption: 1000.0,
        ..tiny(6)
    };
    for _ in 0..2 {
        let err = cache
            .get_or_compute(&spec)
            .expect_err("every extracted record is quarantined");
        assert!(
            matches!(
                err,
                StageError::Quarantined {
                    stage: "extract",
                    ..
                }
            ),
            "{err}"
        );
    }
    assert_eq!(cache.computed_runs(), 1);
    assert_eq!(
        cache.status(&spec.run_key().expect("key")),
        RunStatus::Failed
    );
}

/// A spec no driver can execute is rejected before it claims a slot or
/// starts a pipeline.
#[test]
fn invalid_spec_is_rejected_before_computing() {
    let cache = RunCache::in_memory();
    let spec = RunSpec {
        epochs: 3,
        shards: 2,
        ..tiny(7)
    };
    assert_eq!(
        cache.get_or_compute(&spec).map(|run| run.fresh),
        Err(StageError::InvalidSpec(SpecError::ShardedStream))
    );
    assert_eq!(cache.computed_runs(), 0);
}
