//! Deterministic data-parallel primitives for the hot pipeline stages.
//!
//! Every parallel stage in the workspace uses the same pattern, extracted
//! from the original `measure_batch`: split the input into contiguous
//! chunks, map each chunk on a scoped worker thread (the calling thread
//! maps the first chunk itself), and reassemble the per-chunk outputs
//! **in input order**. Because the mapped function is a pure function
//! of the item (and, for [`par_map_seeded`], of a seed
//! derived from the item's fixed-size block — never from the worker
//! count), the output is byte-identical for *any* worker count, including
//! the serial fallback. That is the determinism contract the pipeline's
//! snapshot tests enforce.
//!
//! Worker threads come from the `crossbeam::scope` stub, which spawns
//! real OS threads via `std::thread::scope`.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A worker closure panicked inside a parallel primitive. Carries the
/// stage label the caller supplied, the chunk index the panic came from,
/// and the rendered panic payload — enough to name the poisoned
/// partition without aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Caller-supplied stage label (e.g. `"measure_images"`).
    pub stage: &'static str,
    /// Which chunk's worker panicked (0 for the serial path).
    pub chunk: usize,
    /// The panic payload, rendered (`&str`/`String` payloads verbatim).
    pub payload: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parallel worker panicked in stage `{}` (chunk {}): {}",
            self.stage, self.chunk, self.payload
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a caught panic payload for [`WorkerPanic::payload`].
fn panic_payload(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Inputs shorter than this run serially on the calling thread.
///
/// Rationale: spawning a scoped OS thread costs on the order of tens of
/// microseconds; the cheapest per-item work we parallelise (rendering and
/// hashing one synthetic image, extracting one thread's features) sits
/// around a microsecond or more. Below ~64 items the spawn + join
/// overhead rivals the work itself, so small batches — most packs, tiny
/// test corpora — stay serial and fast, while anything worth splitting is
/// far above the cutoff. Shared by all parallel stages so the threshold
/// is tuned (and documented) in exactly one place.
pub const SERIAL_CUTOFF: usize = 64;

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`effective_workers`] clamps to the host's core count.
static CLAMP_TO_AVAILABLE: AtomicBool = AtomicBool::new(true);

/// Enables or disables the core-count clamp (process-global).
///
/// The clamp is on by default: oversubscribing a 1-core host with 4
/// worker threads was measured *slower* than running serially
/// (BENCH_pipeline.json aggregate_speedup 0.90), and the determinism
/// contract means the clamp can never change output — only wall time.
/// The worker-matrix tests disable it so `workers = 7` really spawns 7
/// threads and exercises chunk boundaries even on small hosts.
pub fn set_clamp_enabled(enabled: bool) {
    CLAMP_TO_AVAILABLE.store(enabled, Ordering::Relaxed);
}

/// Current state of the core-count clamp.
pub fn clamp_enabled() -> bool {
    CLAMP_TO_AVAILABLE.load(Ordering::Relaxed)
}

/// The pure clamp rule: `0` means "all of `available`", anything else is
/// capped at `available` (never below 1). Split out so the policy is
/// unit-testable without touching the process-global switch.
pub fn clamped_workers(requested: usize, available: usize) -> usize {
    let available = available.max(1);
    if requested == 0 {
        available
    } else {
        requested.min(available)
    }
}

/// Resolves a `workers` knob: `0` means "all available cores", and —
/// unless the clamp is disabled via [`set_clamp_enabled`] — explicit
/// requests are capped at `std::thread::available_parallelism()` so an
/// oversubscribed knob degrades to the host's real parallelism.
pub fn effective_workers(workers: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(4, |n| n.get());
    if clamp_enabled() {
        clamped_workers(workers, available)
    } else if workers == 0 {
        available
    } else {
        workers
    }
}

/// Maps `f` over `items` across `workers` threads, preserving input
/// order. `workers == 0` uses all cores; short inputs run serially.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, workers, |_, item| f(item))
}

/// [`par_map`] where `f` also receives the item's index in `items`.
pub fn par_map_indexed<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_range(items.len(), workers, |i| f(i, &items[i]))
}

/// Maps `f` over the index range `0..n` across `workers` threads,
/// returning results in index order. The slice-free primitive the others
/// build on — iterative solvers use it to fill a whole vector per
/// iteration without materialising an index list.
pub fn par_map_range<U, F>(n: usize, workers: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    match try_par_map_range("par_map_range", n, workers, f) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`par_map`]: a panicking worker closure surfaces as a
/// [`WorkerPanic`] naming `stage` and the chunk index instead of
/// aborting the run. The supervision layer uses this to quarantine a
/// poisoned partition while the other shards keep their results.
pub fn try_par_map<T, U, F>(
    stage: &'static str,
    items: &[T],
    workers: usize,
    f: F,
) -> Result<Vec<U>, WorkerPanic>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_par_map_range(stage, items.len(), workers, |i| f(&items[i]))
}

/// Fallible [`par_map_range`]: every worker (and the serial fallback)
/// runs under `catch_unwind`, so the first panicking chunk is reported
/// as a typed [`WorkerPanic`] and the scope still joins cleanly.
pub fn try_par_map_range<U, F>(
    stage: &'static str,
    n: usize,
    workers: usize,
    f: F,
) -> Result<Vec<U>, WorkerPanic>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = effective_workers(workers);
    if n < SERIAL_CUTOFF || workers <= 1 {
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(&f).collect::<Vec<U>>())).map_err(
            |e| WorkerPanic {
                stage,
                chunk: 0,
                payload: panic_payload(e),
            },
        );
    }
    let chunk = n.div_ceil(workers);
    let mut parts = Vec::with_capacity(workers);
    crossbeam::scope(|s| {
        let f = &f;
        let run = move |start: usize| (start..(start + chunk).min(n)).map(f).collect::<Vec<U>>();
        let handles: Vec<_> = (chunk..n)
            .step_by(chunk)
            .map(|start| s.spawn(move |_| catch_unwind(AssertUnwindSafe(|| run(start)))))
            .collect();
        parts.push(catch_unwind(AssertUnwindSafe(|| run(0))));
        parts.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker holds its own panic")),
        );
    })
    .expect("parallel scope");
    let parts = join_parts(stage, parts)?;
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    Ok(out)
}

/// Collects per-chunk results in chunk order, or names the first chunk
/// whose closure panicked.
///
/// The parallel primitives map chunk 0 on the calling thread instead of
/// leaving it idle in the join. That saves one spawn per call, and it
/// keeps chunk 0's allocations in the caller's allocator arena. glibc
/// keeps one arena per concurrent thread and holds on to memory freed
/// in it, so every extra worker thread raises the peak RSS of a
/// long-running process such as `serve`.
fn join_parts<U>(
    stage: &'static str,
    parts: Vec<std::thread::Result<U>>,
) -> Result<Vec<U>, WorkerPanic> {
    parts
        .into_iter()
        .enumerate()
        .map(|(chunk, part)| {
            part.map_err(|e| WorkerPanic {
                stage,
                chunk,
                payload: panic_payload(e),
            })
        })
        .collect()
}

/// Fills `out[i] = f(i)` in place across `workers` threads — the
/// allocation-free sibling of [`par_map_range`] for iterative solvers
/// that sweep the same buffer every iteration. Chunking matches
/// [`par_map_range`] exactly, and `f` is pure per index, so the filled
/// buffer is identical at every worker count.
pub fn par_fill_range<U, F>(out: &mut [U], workers: usize, f: F)
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let n = out.len();
    let workers = effective_workers(workers);
    if n < SERIAL_CUTOFF || workers <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    crossbeam::scope(|s| {
        let f = &f;
        for (c, part) in out.chunks_mut(chunk).enumerate() {
            s.spawn(move |_| {
                let start = c * chunk;
                for (j, slot) in part.iter_mut().enumerate() {
                    *slot = f(start + j);
                }
            });
        }
    })
    .expect("parallel scope");
}

/// Splits `items` into one contiguous chunk per worker and maps `f` over
/// each whole chunk on its own thread, returning per-chunk results in
/// input order. The building block for parallel *accumulation* (document
/// frequencies, digest counts): each worker folds its chunk, the caller
/// merges the partials. The number of chunks depends on the worker count,
/// so worker-count invariance requires the merge to be commutative and
/// associative over chunk boundaries (integer counts are; floats are
/// not). Short inputs produce a single chunk processed serially.
pub fn par_map_chunks<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    match try_par_map_chunks("par_map_chunks", items, workers, f) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`par_map_chunks`]: the chunk index in the error is the
/// index of the per-worker chunk whose closure panicked (0 for the
/// serial single-chunk path).
pub fn try_par_map_chunks<T, U, F>(
    stage: &'static str,
    items: &[T],
    workers: usize,
    f: F,
) -> Result<Vec<U>, WorkerPanic>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    let workers = effective_workers(workers);
    if items.len() < SERIAL_CUTOFF || workers <= 1 {
        return catch_unwind(AssertUnwindSafe(|| vec![f(items)])).map_err(|e| WorkerPanic {
            stage,
            chunk: 0,
            payload: panic_payload(e),
        });
    }
    let chunk = items.len().div_ceil(workers);
    let mut parts = Vec::with_capacity(workers);
    crossbeam::scope(|s| {
        let f = &f;
        let mut chunks = items.chunks(chunk);
        let first = chunks.next().expect("input is above the serial cutoff");
        let handles: Vec<_> = chunks
            .map(|part| s.spawn(move |_| catch_unwind(AssertUnwindSafe(|| f(part)))))
            .collect();
        parts.push(catch_unwind(AssertUnwindSafe(|| f(first))));
        parts.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker holds its own panic")),
        );
    })
    .expect("parallel scope");
    join_parts(stage, parts)
}

/// Mixes a block index into a base seed (splitmix-style odd constant).
fn block_seed(seed: u64, block: usize) -> u64 {
    seed ^ (block as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Maps `f` over `items` with per-block seeded state, deterministically
/// for any worker count.
///
/// The input is split into **fixed-size blocks of [`SERIAL_CUTOFF`]
/// items** — fixed, so block boundaries never depend on the worker count
/// the way per-worker chunks do. Each block builds its own state via
/// `init(seed ⊕ mix(block_index))` and maps its items through `f` in
/// order; blocks are distributed over the workers and reassembled in
/// input order. Stages that need randomness inside a parallel loop seed
/// `init` from `PipelineOptions::seed`, keeping the stream independent of
/// both thread scheduling and worker count.
pub fn par_map_seeded<T, U, S, I, F>(
    items: &[T],
    workers: usize,
    seed: u64,
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn(u64) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let blocks: Vec<(usize, &[T])> = items.chunks(SERIAL_CUTOFF).enumerate().collect();
    let mapped: Vec<Vec<U>> = par_map(&blocks, workers, |&(b, part)| {
        let mut state = init(block_seed(seed, b));
        part.iter()
            .enumerate()
            .map(|(j, item)| f(&mut state, b * SERIAL_CUTOFF + j, item))
            .collect()
    });
    mapped.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map(&[] as &[i32], 4, |x| x * 2);
        assert!(out.is_empty());
        assert!(par_map_range(0, 4, |i| i).is_empty());
    }

    #[test]
    fn below_cutoff_runs_serially_and_matches() {
        let items: Vec<u64> = (0..SERIAL_CUTOFF as u64 - 1).collect();
        let out = par_map(&items, 8, |&x| x * x);
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn length_not_divisible_by_workers_preserves_order() {
        // 1000 items over 7 workers: chunks of 143, last chunk short.
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 7, |&x| x + 1);
        let serial: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn more_workers_than_items_still_covers_everything() {
        let items: Vec<u64> = (0..SERIAL_CUTOFF as u64 + 5).collect();
        let out = par_map(&items, 1000, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn indexed_map_sees_global_indices() {
        let items = vec![10u64; 300];
        let out = par_map_indexed(&items, 4, |i, &x| i as u64 + x);
        let serial: Vec<u64> = (0..300).map(|i| i as u64 + 10).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn range_map_matches_serial_for_any_worker_count() {
        let serial: Vec<usize> = (0..517).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 7, 16] {
            assert_eq!(par_map_range(517, workers, |i| i * 3), serial);
        }
    }

    /// The seeded contract: the per-item stream depends only on the seed
    /// and the item's fixed block, never on the worker count.
    #[test]
    fn seeded_map_is_worker_count_invariant() {
        // A toy xorshift state stands in for StdRng.
        let next = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        let items: Vec<u64> = (0..1000).collect();
        let run = |workers| {
            par_map_seeded(
                &items,
                workers,
                0xFEED,
                |s| s.max(1),
                |s, i, &x| next(s) ^ x ^ i as u64,
            )
        };
        let reference = run(1);
        for workers in [2, 3, 7, 13] {
            assert_eq!(run(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn seeded_blocks_get_distinct_seeds() {
        let items = vec![0u8; 3 * SERIAL_CUTOFF];
        let seeds = par_map_seeded(&items, 2, 7, |s| s, |s, _, _| *s);
        assert_eq!(seeds[0], seeds[SERIAL_CUTOFF - 1], "same block, same seed");
        assert_ne!(seeds[0], seeds[SERIAL_CUTOFF], "next block differs");
        assert_ne!(seeds[SERIAL_CUTOFF], seeds[2 * SERIAL_CUTOFF]);
    }

    #[test]
    fn chunked_fold_partials_merge_to_serial_total() {
        let items: Vec<u64> = (0..999).collect();
        let serial: u64 = items.iter().sum();
        for workers in [1, 2, 5, 8] {
            let partials = par_map_chunks(&items, workers, |part| part.iter().sum::<u64>());
            assert!(partials.len() <= workers.max(1));
            assert_eq!(partials.iter().sum::<u64>(), serial, "workers={workers}");
        }
        // Short input: one serial chunk.
        let short: Vec<u64> = (0..10).collect();
        assert_eq!(par_map_chunks(&short, 8, |p| p.len()), vec![10]);
        // Empty input still produces one (empty) chunk for the fold.
        assert_eq!(par_map_chunks(&[] as &[u64], 4, |p| p.len()), vec![0]);
    }

    #[test]
    fn zero_workers_means_all_cores() {
        assert!(effective_workers(0) >= 1);
        // And the mapping still matches serial output.
        let items: Vec<u64> = (0..500).collect();
        assert_eq!(par_map(&items, 0, |&x| x * 7), {
            let s: Vec<u64> = items.iter().map(|&x| x * 7).collect();
            s
        });
    }

    /// The pure clamp rule, independent of the host's core count.
    #[test]
    fn clamp_rule_caps_at_available() {
        assert_eq!(clamped_workers(0, 8), 8);
        assert_eq!(clamped_workers(4, 8), 4);
        assert_eq!(clamped_workers(16, 8), 8);
        assert_eq!(clamped_workers(4, 1), 1);
        assert_eq!(clamped_workers(0, 0), 1, "available is floored at 1");
    }

    #[test]
    fn clamp_opt_out_honours_explicit_requests() {
        // The switch is process-global; this test only ever *disables*
        // it, matching what every worker-matrix test wants.
        set_clamp_enabled(false);
        assert!(!clamp_enabled());
        assert_eq!(effective_workers(64), 64);
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        assert_eq!(par_map(&items, 64, |&x| x * 3), serial);
    }

    /// The satellite contract: a deliberately panicking closure on the
    /// parallel path surfaces a typed error naming stage + chunk,
    /// instead of aborting via `join().expect`.
    #[test]
    fn panicking_worker_surfaces_typed_error() {
        set_clamp_enabled(false);
        let err = try_par_map_range("demo_stage", 1000, 4, |i| {
            if i == 700 {
                panic!("poisoned item {i}");
            }
            i * 2
        })
        .unwrap_err();
        assert_eq!(err.stage, "demo_stage");
        assert_eq!(err.chunk, 2, "item 700 falls in the third 250-item chunk");
        assert!(err.payload.contains("poisoned item 700"));
        assert!(err.to_string().contains("demo_stage"));
        // The same closure without the poison succeeds through the shim.
        let ok = try_par_map_range("demo_stage", 1000, 4, |i| i * 2).unwrap();
        assert_eq!(ok, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_catches_panics_too() {
        let err = try_par_map("tiny", &[1u32, 2, 3], 4, |_| -> u32 { panic!("boom") }).unwrap_err();
        assert_eq!((err.stage, err.chunk), ("tiny", 0));
        assert_eq!(err.payload, "boom");
    }

    #[test]
    fn chunked_panics_name_their_chunk() {
        set_clamp_enabled(false);
        let items: Vec<u64> = (0..500).collect();
        let err = try_par_map_chunks("fold", &items, 5, |part| {
            if part.contains(&499) {
                panic!("last chunk");
            }
            part.len()
        })
        .unwrap_err();
        assert_eq!(err.stage, "fold");
        assert_eq!(err.chunk, 4, "500 items over 5 workers: chunks of 100");
        assert_eq!(err.payload, "last chunk");
    }

    /// Chunk 0 runs on the calling thread; its panic is caught like a
    /// worker's, and the lowest failing chunk is the one reported.
    #[test]
    fn calling_thread_chunk_panics_are_caught_and_named() {
        set_clamp_enabled(false);
        let err = try_par_map_range("caller", 1000, 4, |i| {
            if i == 3 || i == 900 {
                panic!("poisoned item {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!((err.chunk, err.payload.as_str()), (0, "poisoned item 3"));
        let items: Vec<u64> = (0..500).collect();
        let err = try_par_map_chunks("caller", &items, 5, |part| -> usize {
            if part.contains(&0) {
                panic!("first chunk");
            }
            part.len()
        })
        .unwrap_err();
        assert_eq!((err.chunk, err.payload.as_str()), (0, "first chunk"));
    }

    #[test]
    fn fill_range_matches_map_range_at_every_worker_count() {
        set_clamp_enabled(false);
        let reference = par_map_range(517, 1, |i| i * 31 + 7);
        for workers in [1, 2, 3, 7, 16] {
            let mut out = vec![0usize; 517];
            par_fill_range(&mut out, workers, |i| i * 31 + 7);
            assert_eq!(out, reference, "workers={workers}");
        }
        // Short buffers take the serial path.
        let mut short = vec![0usize; 5];
        par_fill_range(&mut short, 8, |i| i + 1);
        assert_eq!(short, vec![1, 2, 3, 4, 5]);
        let mut empty: Vec<usize> = Vec::new();
        par_fill_range(&mut empty, 4, |i| i);
        assert!(empty.is_empty());
    }
}
