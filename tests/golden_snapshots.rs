//! Golden snapshots: the `snapshot_json` bytes of three fixed runs over
//! `demo_world(0xD37)`, pinned as FNV-1a 64-bit digests.
//!
//! The three runs are the three schedules the pipeline can execute:
//! the unsharded batch driver, the supervised shard driver at three
//! shards, and a 4-epoch stream advanced warm through every epoch. A
//! refactor that claims "same output" must leave every digest as it is.
//! A change that alters output on purpose updates the digests here and
//! says so in its change log.

use ewhoring_core::pipeline::{snapshot_json, EpochEngine, Pipeline, PipelineOptions};

/// FNV-1a 64-bit, the same content hash the journal uses for run keys.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn options() -> PipelineOptions {
    PipelineOptions {
        k_key_actors: 12,
        ..PipelineOptions::default()
    }
}

fn digest(report: &ewhoring_core::PipelineReport) -> String {
    let snapshot = snapshot_json(report).expect("snapshot renders");
    format!("{:016x}/{}", fnv64(snapshot.as_bytes()), snapshot.len())
}

#[test]
fn batch_snapshot_is_golden() {
    let world = ewhoring_suite::demo_world(0xD37);
    let report = Pipeline::new(options()).run(&world);
    assert_eq!(digest(&report), "48952bbe841d73ac/1754885");
}

#[test]
fn sharded_snapshot_is_golden() {
    let world = ewhoring_suite::demo_world(0xD37);
    let report = Pipeline::new(PipelineOptions {
        shards: 3,
        ..options()
    })
    .run(&world);
    assert_eq!(digest(&report), "48952bbe841d73ac/1754885");
}

#[test]
fn epoch_stream_snapshot_is_golden() {
    let world = ewhoring_suite::demo_world(0xD37);
    let mut engine = EpochEngine::new(world, 4, options());
    let report = engine
        .advance_to(4)
        .expect("every epoch advances")
        .expect("the final epoch yields a report");
    assert_eq!(digest(&report), "bd8ec803f9c03536/1755259");
}
