//! Per-layer measurements, each taken by calling one module's public
//! functions from outside the program inside a span.

use crate::openloop::Timing;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::{self, Outcome, Verb};
use crate::{Checks, Metrics};
use ewhoring_core::pipeline::{
    measure_batch, snapshot_json, EpochEngine, Pipeline, PipelineOptions, PipelineReport, RunSpec,
    StageCtx,
};
use ewhoring_core::report::full_report;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use worldgen::World;

/// Stages whose per-item loops run on the data-parallel layer.
const PARALLEL_STAGES: [&str; 4] = ["top_classifier", "measure_images", "nsfv", "actors"];
/// Reverse-index queries timed per kernel probe.
const MAX_QUERIES: usize = 200;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `Err` unless two snapshots are byte-identical.
pub fn same(a: &str, b: &str, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: snapshots differ ({} vs {} bytes)",
            a.len(),
            b.len()
        ))
    }
}

/// Wall time of each stage, in graph order.
type StageTimes = Vec<(&'static str, f64)>;

/// Runs the stage graph one `Stage::run` at a time, each in a span
/// named after the stage; returns the artifact store and the stage
/// times in graph order.
pub fn traced_stages<'w>(
    t: &mut Tracer,
    world: &'w World,
    options: PipelineOptions,
) -> Result<(StageCtx<'w>, StageTimes), String> {
    let mut ctx = StageCtx::new(world, options);
    let mut times = Vec::new();
    for stage in Pipeline::stages() {
        let start = Instant::now();
        t.span(&format!("stage.{}", stage.name()), |_| stage.run(&mut ctx))
            .map_err(|e| format!("stage {}: {e}", stage.name()))?;
        times.push((stage.name(), ms_since(start)));
    }
    Ok((ctx, times))
}

/// The pipeline of one report: `Pipeline::run` when tracing is off, the
/// stage-by-stage loop in spans when it is on. Both give the same
/// snapshot.
pub fn run_pipeline(
    t: &mut Tracer,
    world: &World,
    options: PipelineOptions,
) -> Result<PipelineReport, String> {
    if !t.enabled() {
        return Ok(Pipeline::new(options).run(world));
    }
    t.span("pipeline", |t| {
        let (ctx, _) = traced_stages(t, world, options)?;
        ctx.into_report().map_err(err)
    })
}

/// Worldgen, stage, parkit, kernel, snapshot/render and shard metrics
/// over one world. `generate_ms` is how long the caller took to build
/// it. Every pass's snapshot must equal the untraced `Pipeline::run`'s.
pub fn pipeline(
    t: &mut Tracer,
    world: &World,
    generate_ms: f64,
    spec: &RunSpec,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    m.push("worldgen.generate_ms", generate_ms, "ms");
    m.push("worldgen.posts", world.corpus.posts().len() as f64, "count");
    m.push("worldgen.indexed_images", world.index.len() as f64, "count");

    let options = RunSpec { shards: 0, ..*spec }.options();
    let start = Instant::now();
    let reference = Pipeline::new(options).run(world);
    let unsharded_ms = ms_since(start);
    let expected = snapshot_json(&reference).map_err(err)?;

    let (ctx, w2) = t.span("pipeline.workers2", |t| traced_stages(t, world, options))?;
    kernels(t, world, &ctx, m)?;
    let report = ctx.into_report().map_err(err)?;
    let start = Instant::now();
    let snapshot = t
        .span("snapshot", |_| snapshot_json(&report))
        .map_err(err)?;
    let snapshot_ms = ms_since(start);
    let start = Instant::now();
    black_box(t.span("render.full_report", |_| full_report(&report)));
    let render_ms = ms_since(start);
    checks.op(same(&snapshot, &expected, "traced stage loop"));

    let items: BTreeMap<&str, usize> = reference
        .timings
        .iter()
        .map(|s| (s.stage.as_str(), s.items))
        .collect();
    for (name, ms) in &w2 {
        m.push(format!("stage.{name}.ms"), *ms, "ms");
        m.push(
            format!("stage.{name}.items"),
            items.get(name).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    m.push("snapshot.ms", snapshot_ms, "ms");
    m.push("snapshot.bytes", snapshot.len() as f64, "bytes");
    m.push("render.full_report.ms", render_ms, "ms");

    let serial = PipelineOptions {
        workers: 1,
        ..options
    };
    let (ctx, w1) = t.span("pipeline.workers1", |t| traced_stages(t, world, serial))?;
    let report = ctx.into_report().map_err(err)?;
    checks.op(same(
        &snapshot_json(&report).map_err(err)?,
        &expected,
        "workers 1",
    ));
    for stage in PARALLEL_STAGES {
        let time = |times: &[(&str, f64)]| times.iter().find(|(n, _)| *n == stage).map(|x| x.1);
        let ratio = match (time(&w1), time(&w2)) {
            (Some(one), Some(two)) if two > 0.0 => one / two,
            _ => return Err(format!("stage {stage} missing from the graph")),
        };
        m.push(format!("parkit.speedup.{stage}"), ratio, "ratio");
    }

    let sharded_options = PipelineOptions {
        shards: 5,
        ..options
    };
    let start = Instant::now();
    let sharded = t.span("shard.pipeline", |_| {
        Pipeline::new(sharded_options).run(world)
    });
    let sharded_ms = ms_since(start);
    checks.op(same(
        &snapshot_json(&sharded).map_err(err)?,
        &expected,
        "sharded run",
    ));
    m.push("shard.pipeline_ms", sharded_ms, "ms");
    m.push("shard.overhead_ratio", sharded_ms / unsharded_ms, "ratio");
    m.push(
        "supervision.shards_run",
        sharded.supervision.shards_run as f64,
        "count",
    );
    m.push(
        "supervision.shards_restarted",
        sharded.supervision.shards_restarted as f64,
        "count",
    );
    Ok(())
}

/// The image-measure and reverse-search kernels on a run's own crawl
/// and measures.
fn kernels(
    t: &mut Tracer,
    world: &World,
    ctx: &StageCtx<'_>,
    m: &mut Metrics,
) -> Result<(), String> {
    let crawl = ctx.crawl.as_ref().ok_or("no crawl artifact")?;
    let images: Vec<_> = crawl
        .previews
        .iter()
        .map(|d| d.image)
        .chain(crawl.packs.iter().flat_map(|p| p.images.iter().copied()))
        .collect();
    let workers = ctx.options.workers;
    let start = Instant::now();
    black_box(t.span("kernel.measure_batch", |_| measure_batch(&images, workers)));
    m.push(
        "kernel.measure_batch.us_per_image",
        ms_since(start) * 1e3 / images.len().max(1) as f64,
        "us",
    );

    let measures = ctx.measures.as_ref().ok_or("no measures artifact")?;
    let hashes: Vec<_> = measures
        .previews
        .iter()
        .take(MAX_QUERIES)
        .map(|x| x.hash)
        .collect();
    let start = Instant::now();
    t.span("kernel.revsearch.query", |_| {
        for h in &hashes {
            black_box(world.index.query(h));
        }
    });
    m.push(
        "kernel.revsearch.query_us",
        ms_since(start) * 1e3 / hashes.len().max(1) as f64,
        "us",
    );
    // The index is a linear scan: every query visits every entry.
    m.push(
        "kernel.revsearch.entries_scanned",
        world.index.len() as f64,
        "count",
    );
    Ok(())
}

/// Replays every epoch of a fresh engine over `world`, each advance
/// followed by the snapshot a streaming consumer gets, and checks the
/// final snapshot against a full recompute.
pub fn epochs(
    t: &mut Tracer,
    world: World,
    epochs: u32,
    options: PipelineOptions,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut engine = EpochEngine::new(world, epochs, options);
    let mut advance = Vec::new();
    let mut per_thread = Vec::new();
    let mut last = String::new();
    for _ in 0..epochs {
        let threads = engine.world().corpus.threads().len();
        let start = Instant::now();
        let report = t.span("epoch.advance", |_| engine.advance()).map_err(err)?;
        let ms = ms_since(start);
        last = t
            .span("snapshot", |_| snapshot_json(&report))
            .map_err(err)?;
        checks.op(Ok(()));
        advance.push(ms);
        let new_threads = engine.world().corpus.threads().len() - threads;
        if new_threads > 0 {
            per_thread.push(ms * 1e3 / new_threads as f64);
        }
    }
    let fresh = engine.fresh_report().map_err(err)?;
    let fresh = snapshot_json(&fresh).map_err(err)?;
    if let Err(why) = same(&last, &fresh, "final advance vs fresh_report") {
        checks.fail(&why);
    }
    let carry = serde_json::to_string(engine.carry()).map_err(err)?;
    m.push(
        "epoch.advance.ms_p50",
        median(&advance).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "epoch.advance.ms_max",
        advance.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.push(
        "epoch.us_per_new_thread",
        median(&per_thread).unwrap_or(0.0),
        "us",
    );
    m.push("epoch.carry_bytes", carry.len() as f64, "bytes");
    Ok(())
}

/// Records one span per request of a finished session, under the
/// session span that is open; `base_ms` is the session start on the
/// tracer's clock.
pub fn record_requests(t: &mut Tracer, base_ms: f64, outcomes: &[Outcome]) {
    for o in outcomes {
        let Timing {
            sent_ms, done_ms, ..
        } = o.timing;
        t.record(
            &format!("serve.{}", o.verb.name()),
            base_ms + sent_ms,
            base_ms + done_ms,
        );
    }
}

/// Per-verb serve metrics, cache counters, journal usage and generator
/// lag of one session.
pub fn serve(outcomes: &[Outcome], journal: &Path, m: &mut Metrics) {
    for verb in wire::VERBS {
        let of: Vec<&Outcome> = outcomes.iter().filter(|o| o.verb == verb).collect();
        let lat: Vec<f64> = of.iter().map(|o| o.timing.latency_ms()).collect();
        let bytes: Vec<f64> = of.iter().map(|o| o.bytes as f64).collect();
        let compute: Vec<f64> = of.iter().map(|o| o.compute_ms.unwrap_or(0.0)).collect();
        let wire: Vec<f64> = of
            .iter()
            .map(|o| o.timing.service_ms() - o.compute_ms.unwrap_or(0.0))
            .collect();
        let name = verb.name();
        m.push(
            format!("serve.{name}.latency_ms_p50"),
            median(&lat).unwrap_or(0.0),
            "ms",
        );
        m.push(
            format!("serve.{name}.response_bytes"),
            median(&bytes).unwrap_or(0.0),
            "bytes",
        );
        if matches!(verb, Verb::RunCold | Verb::Advance) {
            m.push(
                format!("serve.{name}.compute_ms_p50"),
                median(&compute).unwrap_or(0.0),
                "ms",
            );
        }
        m.push(
            format!("serve.{name}.wire_ms_p50"),
            median(&wire).unwrap_or(0.0),
            "ms",
        );
    }
    let runs: Vec<bool> = outcomes.iter().filter_map(|o| o.cached).collect();
    let hits = runs.iter().filter(|&&c| c).count();
    m.push(
        "cache.hit_ratio",
        hits as f64 / runs.len().max(1) as f64,
        "ratio",
    );
    m.push("cache.cold_runs", (runs.len() - hits) as f64, "count");
    let (bytes, files) = wire::dir_usage(journal);
    m.push("journal.bytes_written", bytes as f64, "bytes");
    m.push("journal.files", files as f64, "count");
    let lag: Vec<f64> = outcomes.iter().map(|o| o.timing.lag_ms()).collect();
    m.push(
        "loadgen.lag_ms_max",
        lag.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// `p`-th percentile of `xs`, 0 when empty.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p).unwrap_or(0.0)
}
