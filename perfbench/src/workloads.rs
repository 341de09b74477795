//! The two workloads. Each builds its inputs from the seed (set-up,
//! timed on its own and repeated), measures for the run length with
//! tracing off, and checks its outputs. With tracing on it then makes a
//! traced pass for the per-layer metrics and the tracing overhead.

use crate::host;
use crate::layers::{self, ms_since, pct, same};
use crate::pace::Pace;
use crate::stats::{latency_percentile, median, tail_percentile};
use crate::steal::{CpuTicks, Timer};
use crate::trace::{self_time_by_name, Tracer};
use crate::wire::{self, Plan, Server};
use crate::{derive, Args, Checks, Metrics};
use ewhoring_core::pipeline::{snapshot_json, Pipeline, RunSpec};
use ewhoring_core::report::full_report;
use std::hint::black_box;
use std::time::Instant;
use worldgen::World;

pub const NAMES: [&str; 2] = ["batch_cold", "serve_mixed"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// World scale of one `batch_cold` report.
const COLD_SCALE: f64 = 0.1;
/// Length of the serve session that measures the serve layers on
/// workloads that do not serve.
const SERVE_PROBE_SECONDS: f64 = 4.0;
/// Feed epochs of the epoch probe. With 20 epochs at scale 0.1, about
/// one seed in fifteen leaves the first epoch without an eWhoring
/// thread, and `EpochEngine::advance` panics in
/// `linsvm::train_test_split`; with 10 no probed seed does.
const EPOCHS: u32 = 10;

pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub checks: Checks,
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut t = if a.trace {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let mut per_layer = Metrics::default();
    let end_to_end = match a.workload.as_str() {
        "batch_cold" => batch_cold(a, &mut t, &mut checks, &mut per_layer)?,
        "serve_mixed" => serve_mixed(a, &mut t, &mut checks, &mut per_layer)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if a.trace {
        write_trace(a, &t)?;
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
        checks,
    })
}

fn write_trace(a: &Args, t: &Tracer) -> Result<(), String> {
    let path = a
        .out_dir
        .join(format!("trace-{}-{}.json", a.workload, a.seed));
    std::fs::write(&path, serde::render(&t.to_json()))
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    let mut by_self: Vec<(String, f64)> = self_time_by_name(t.spans()).into_iter().collect();
    by_self.sort_by(|x, y| y.1.total_cmp(&x.1));
    eprintln!(
        "self time by span ({} spans, {}):",
        t.spans().len(),
        path.display()
    );
    for (name, ms) in by_self.iter().take(16) {
        eprintln!("  {name:<40} {ms:>12.2} ms");
    }
    Ok(())
}

/// The end-to-end metrics shared by every workload. Every time in them
/// leaves out CPU steal (see [`crate::steal`]); closed-loop and set-up
/// times are also scaled to nominal host speed (see [`crate::pace`]).
struct Measured {
    setup_s: f64,
    /// Per-operation latency, in milliseconds.
    op_ms: Vec<f64>,
    /// Per-operation wall time with steal left in, for the log.
    wall_ms: Vec<f64>,
    /// CPU ticks over the timed window.
    window: CpuTicks,
    /// Forum posts processed per second: of summed operation time in a
    /// closed loop, of the session in the open one (the posts of its
    /// cold runs).
    posts_per_s: f64,
    /// Seconds over which `good` is rated: the summed operation time of
    /// a closed loop, the session of an open one.
    busy_s: f64,
    /// Operations that were correct (and, open loop, within the limit).
    good: usize,
    /// Peak resident memory: the median of the operations' own peaks in
    /// closed loops, the server's peak in the open one.
    peak_rss_mb: f64,
}

impl Measured {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let n = self.op_ms.len();
        match tail_percentile(n) {
            Some(p) => eprintln!(
                "{n} samples; p{p} {:.3} ms is the highest percentile with 10 beyond it",
                pct(&self.op_ms, f64::from(p))
            ),
            None => eprintln!("{n} samples; too few for a tail percentile with 10 beyond it"),
        }
        eprintln!(
            "raw wall time: p50 {:.3} ms, p95 {:.3} ms; {:.0} ms stolen in the window, \
             {:.2}% of the CPU time wanted",
            pct(&self.wall_ms, 50.0),
            pct(&self.wall_ms, 95.0),
            self.window.stolen_ms(),
            self.window.stolen_share() * 100.0
        );
        m.push("setup_s", self.setup_s, "s");
        let at = |p: f64| latency_percentile(&self.op_ms, p).unwrap_or(0.0);
        m.push("latency_ms_p50", at(50.0), "ms");
        m.push("latency_ms_p95", at(95.0), "ms");
        m.push("posts_per_s", self.posts_per_s, "1/s");
        m.push("goodput_rps", self.good as f64 / self.busy_s, "1/s");
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        m
    }
}

fn own_rss() -> f64 {
    host::peak_rss_mb("self").unwrap_or(0.0)
}

/// Runs `op` and returns it with the process's peak resident memory
/// while it ran (since start where the peak cannot be reset).
fn with_peak<T>(op: impl FnOnce() -> T) -> (T, f64) {
    host::reset_peak_rss("self");
    let out = op();
    (out, own_rss())
}

fn ratio(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        traced / untraced
    } else {
        0.0
    }
}

/// A batch run spec; every workload uses two pipeline workers.
fn batch_spec(scale: f64, seed: u64) -> RunSpec {
    RunSpec {
        scale,
        seed,
        workers: 2,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    }
}

/// Times `build` `SETUP_REPS` times, each without steal and normalised
/// by `pace`, and keeps the last result; the set-up time is the median.
fn setup<T>(
    pace: &mut Pace,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let timer = Timer::start();
        last = Some(build()?);
        times.push(pace.close(timer.stop().1) / 1e3);
    }
    let median = median(&times).expect("SETUP_REPS > 0");
    Ok((median, last.expect("SETUP_REPS > 0")))
}

/// One timed operation: wall milliseconds, and the same without steal.
type OpTime = (f64, f64);

/// One cold report: World::generate → pipeline → snapshot_json →
/// full_report. Returns its time, the generate wall time, the world and
/// the snapshot.
fn cold_report(t: &mut Tracer, spec: &RunSpec) -> Result<(OpTime, f64, World, String), String> {
    let start = Instant::now();
    let timer = Timer::start();
    t.span("op", |t| {
        let world = t.span("worldgen.generate", |_| {
            World::generate(spec.world_config())
        });
        let generate_ms = ms_since(start);
        let report = layers::run_pipeline(t, &world, spec.options())?;
        let snapshot = t
            .span("snapshot", |_| snapshot_json(&report))
            .map_err(|e| e.to_string())?;
        black_box(t.span("render.full_report", |_| full_report(&report)));
        Ok((timer.stop(), generate_ms, world, snapshot))
    })
}

/// Closed loop, one cold report at [`COLD_SCALE`] at a time, a new
/// world seed per report.
fn batch_cold(
    a: &Args,
    t: &mut Tracer,
    checks: &mut Checks,
    layers_m: &mut Metrics,
) -> Result<Metrics, String> {
    let spec_for = |i: u64| batch_spec(COLD_SCALE, derive(a.seed, 0xBA7C, i));
    // Set-up: a scale-0.02 warm-up report through the same path, so
    // first-touch costs are paid before timing. Its seed recurs on every
    // repetition, and its snapshot must repeat byte for byte.
    let warm = batch_spec(0.02, derive(a.seed, 0xBA7C, u64::MAX));
    let mut warm_snapshot: Option<String> = None;
    let mut pace = Pace::new();
    let (setup_s, ()) = setup(&mut pace, || {
        let (_, _, _, snapshot) = cold_report(&mut Tracer::off(), &warm)?;
        if let Some(first) = &warm_snapshot {
            checks.op(same(&snapshot, first, "warm-up recurrence"));
        }
        warm_snapshot = Some(snapshot);
        Ok(())
    })?;

    let mut off = Tracer::off();
    let mut op_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut posts = 0;
    let mut first_snapshot = None;
    let window = Instant::now();
    let window_ticks = CpuTicks::now();
    let mut i = 0;
    let mut peaks = Vec::new();
    while i == 0 || window.elapsed().as_secs_f64() < a.seconds {
        let (outcome, peak) = with_peak(|| cold_report(&mut off, &spec_for(i)));
        match outcome {
            Ok(((wall, ms), _, world, snapshot)) => {
                checks.op(Ok(()));
                op_ms.push(pace.close(ms));
                wall_ms.push(wall);
                peaks.push(peak);
                posts += world.corpus.posts().len();
                if i == 0 {
                    first_snapshot = Some(snapshot);
                }
            }
            Err(e) => checks.op(Err(e)),
        }
        i += 1;
    }
    let window_end = CpuTicks::now();
    let peak_rss_mb = median(&peaks).unwrap_or_else(own_rss);

    if a.trace {
        // The first seed again, traced: it must equal the untraced
        // snapshot.
        let ((ms, _), generate_ms, world, snapshot) = cold_report(t, &spec_for(0))?;
        if let Some(first) = &first_snapshot {
            checks.op(same(&snapshot, first, "traced vs untraced report"));
        }
        layers_m.push("trace.overhead_ratio", ratio(ms, wall_ms[0]), "ratio");
        pace_metric(&pace, layers_m);
        layers::pipeline(t, &world, generate_ms, &spec_for(0), checks, layers_m)?;
        epoch_probe(a, t, checks, layers_m)?;
        serve_probe(a, t, checks, layers_m)?;
    }
    let good = op_ms.len().saturating_sub(checks.failed);
    Ok(Measured {
        setup_s,
        busy_s: op_ms.iter().sum::<f64>() / 1e3,
        posts_per_s: posts as f64 * 1e3 / op_ms.iter().sum::<f64>(),
        op_ms,
        wall_ms,
        window: window_ticks.until(window_end),
        good,
        peak_rss_mb,
    }
    .metrics())
}

/// The median reference-kernel time of the run: how fast the host ran
/// for the benchmark, which the closed-loop times are normalised by.
fn pace_metric(pace: &Pace, m: &mut Metrics) {
    m.push(
        "pace.kernel_ms",
        median(&pace.kernel_ms).unwrap_or(0.0),
        "ms",
    );
}

/// The hot wire specs of a seed.
fn hot_specs(seed: u64) -> Vec<RunSpec> {
    (0..3).map(|i| wire::spec(derive(seed, 0x407, i))).collect()
}

/// Batch snapshots of `specs`, computed in-process.
fn batch_snapshots(specs: &[RunSpec]) -> Result<Vec<String>, String> {
    specs
        .iter()
        .map(|s| {
            let world = World::generate(s.world_config());
            snapshot_json(&Pipeline::new(s.options()).run(&world)).map_err(|e| e.to_string())
        })
        .collect()
}

/// Starts a server and runs every hot spec cold on it.
fn start_primed(a: &Args, name: &str, hot: &[RunSpec]) -> Result<Server, String> {
    let server = Server::spawn(&a.report_bin, &a.out_dir.join(name))?;
    wire::prime(&server.addr, hot)?;
    Ok(server)
}

/// One session inside a `serve.session` span, with a span per request.
fn traced_session(
    t: &mut Tracer,
    addr: &str,
    plan: &Plan,
) -> Result<(Vec<wire::Outcome>, f64), String> {
    t.span("serve.session", |t| {
        let base = t.now_ms();
        let (outcomes, wall_ms) = wire::session(addr, plan)?;
        layers::record_requests(t, base, &outcomes);
        Ok((outcomes, wall_ms))
    })
}

/// Open loop at a fixed rate over two connections to a separate
/// `report serve --pool 2` process.
fn serve_mixed(
    a: &Args,
    t: &mut Tracer,
    checks: &mut Checks,
    layers_m: &mut Metrics,
) -> Result<Metrics, String> {
    let hot = hot_specs(a.seed);
    let mut reps = 0;
    let mut pace = Pace::new();
    let (setup_s, server) = setup(&mut pace, || {
        reps += 1;
        start_primed(a, &format!("serve-{}-{reps}", a.seed), &hot)
    })?;
    let plan = Plan {
        seed: a.seed,
        pass: 0,
        hot: hot.clone(),
        seconds: a.seconds,
    };
    let window_ticks = CpuTicks::now();
    let (outcomes, wall_ms) = wire::session(&server.addr, &plan)?;
    let window = window_ticks.until(CpuTicks::now());
    let peak_rss_mb = server
        .pid()
        .and_then(|pid| host::peak_rss_mb(&pid.to_string()))
        .unwrap_or(0.0);
    let reference = batch_snapshots(&hot)?;
    let before = checks.failed;
    wire::check(&outcomes, &reference, checks);
    let op_ms: Vec<f64> = outcomes.iter().map(|o| o.latency_ms()).collect();
    let good = outcomes
        .iter()
        .filter(|o| o.verdict.is_ok() && o.latency_ms() <= wire::LATENCY_LIMIT_MS)
        .count();
    let posts: usize = outcomes
        .iter()
        .filter(|o| o.verdict.is_ok())
        .filter_map(|o| o.cold)
        .map(|s| World::generate(s.world_config()).corpus.posts().len())
        .sum();
    if checks.failed > before {
        eprintln!(
            "{} of {} requests failed",
            checks.failed - before,
            outcomes.len()
        );
    }

    if a.trace {
        let traced_plan = Plan { pass: 1, ..plan };
        let (traced, _) = traced_session(t, &server.addr, &traced_plan)?;
        wire::check(&traced, &reference, checks);
        let traced_ms: Vec<f64> = traced.iter().map(|o| o.latency_ms()).collect();
        layers_m.push(
            "trace.overhead_ratio",
            ratio(
                median(&traced_ms).unwrap_or(0.0),
                median(&op_ms).unwrap_or(0.0),
            ),
            "ratio",
        );
        layers::serve(&traced, &server.journal, layers_m);
        pace_metric(&pace, layers_m);
        let start = Instant::now();
        let world = World::generate(hot[0].world_config());
        let generate_ms = ms_since(start);
        layers::pipeline(t, &world, generate_ms, &hot[0], checks, layers_m)?;
        epoch_probe(a, t, checks, layers_m)?;
    }
    server.shutdown()?;
    Ok(Measured {
        setup_s,
        wall_ms: outcomes.iter().map(|o| o.timing.latency_ms()).collect(),
        op_ms,
        window,
        busy_s: wall_ms / 1e3,
        posts_per_s: posts as f64 * 1e3 / wall_ms,
        good,
        peak_rss_mb,
    }
    .metrics())
}

/// Epoch-layer metrics on a scale-0.1 world sliced into [`EPOCHS`]
/// epochs.
fn epoch_probe(
    a: &Args,
    t: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let spec = RunSpec {
        epochs: EPOCHS,
        ..batch_spec(0.1, derive(a.seed, 0x57E, 0))
    };
    let world = World::generate(spec.world_config());
    t.span("epoch.probe", |t| {
        layers::epochs(t, world, EPOCHS, spec.options(), checks, m)
    })?;
    Ok(())
}

/// Serve-layer metrics from a short session on a fresh server, for
/// workloads that do not serve.
fn serve_probe(
    a: &Args,
    t: &mut Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let hot = hot_specs(a.seed);
    let server = start_primed(a, &format!("serve-probe-{}", a.seed), &hot)?;
    let plan = Plan {
        seed: a.seed,
        pass: 1,
        hot: hot.clone(),
        seconds: SERVE_PROBE_SECONDS,
    };
    let (outcomes, _) = traced_session(t, &server.addr, &plan)?;
    wire::check(&outcomes, &batch_snapshots(&hot)?, checks);
    layers::serve(&outcomes, &server.journal, m);
    server.shutdown()
}
