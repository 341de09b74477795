//! The `report serve` process under test and the open-loop client that
//! drives it over the line-delimited JSON wire protocol.

use crate::openloop::{due_ms, Timing};
use crate::steal::{self, CpuTicks};
use crate::{derive, Checks};
use ewhoring_bench::proto::{Request, Response};
use ewhoring_core::pipeline::RunSpec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Scale of every wire run: small enough that a cold run costs a few
/// hundred milliseconds.
pub const WIRE_SCALE: f64 = 0.02;
/// Epochs of an `advance` stream. Keys rotate after
/// `ADVANCE_EPOCHS - 1` advances, so no request asks past the end.
const ADVANCE_EPOCHS: u32 = 6;
/// A read poll: a client checking one key sends these back to back.
const POLL: &[Verb] = &[Verb::Status, Verb::Health, Verb::RunHit];

/// Request groups and how many of each one deck holds.
pub type Deck = &'static [(&'static [Verb], usize)];

/// The two connections: each one's slot rate (per second) and its deck
/// of request groups. A group's requests fall due together and go out
/// back to back. Reads go out on one connection and compute on the
/// other, so a cold run does not hold up the reads; the two still share
/// the server's cores. Together the lanes offer 9 req/s: about 78% small
/// verbs (`status`, `health`, cache-hit `run`), 17% `report`, 2.8%
/// `advance` and 2.8% cold `run`. Cold runs are the slowest requests,
/// and a few of them decide any percentile that falls among them; at
/// under 3% of the mix the p95 falls inside the cache-hit `run` band,
/// clear of their edge. The compute lane stays under a third busy, so a
/// slower host does not tip it into a growing queue.
pub const LANES: [(f64, Deck); 2] = [
    // 14 polls and 9 reports: 51 requests per 23 slots.
    (8.5 * 23.0 / 51.0, &[(POLL, 14), (&[Verb::Report], 9)]),
    (0.5, &[(&[Verb::Advance], 1), (&[Verb::RunCold], 1)]),
];

/// A response slower than this, from its due time, is not goodput. One
/// cold run takes 0.4–0.6 s, so only queueing or a stalled host misses.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;

/// The request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Status,
    Health,
    RunHit,
    RunCold,
    Report,
    Advance,
}

pub const VERBS: [Verb; 6] = [
    Verb::Status,
    Verb::Health,
    Verb::RunHit,
    Verb::RunCold,
    Verb::Report,
    Verb::Advance,
];

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Status => "status",
            Verb::Health => "health",
            Verb::RunHit => "run_hit",
            Verb::RunCold => "run_cold",
            Verb::Report => "report",
            Verb::Advance => "advance",
        }
    }
}

/// The request group of every slot of a lane: consecutive copies of
/// its deck, each shuffled by the seed.
pub fn schedule(deck: Deck, seed: u64, slots: usize) -> Vec<&'static [Verb]> {
    let mut out = Vec::with_capacity(slots);
    let mut round = 0u64;
    while out.len() < slots {
        let mut d: Vec<&[Verb]> = deck
            .iter()
            .flat_map(|&(g, n)| std::iter::repeat_n(g, n))
            .collect();
        for i in (1..d.len()).rev() {
            let j = (derive(seed, 0xDEC, round * 64 + i as u64) % (i as u64 + 1)) as usize;
            d.swap(i, j);
        }
        out.extend(d);
        round += 1;
    }
    out.truncate(slots);
    out
}

/// Slots of a lane in a session of `seconds`: whole decks, so every
/// session of a length sends each verb the same number of times.
pub fn session_slots(seconds: f64, rate: f64, deck: Deck) -> usize {
    let per_deck: usize = deck.iter().map(|&(_, n)| n).sum();
    (seconds * rate / per_deck as f64).ceil() as usize * per_deck
}

/// A wire spec at [`WIRE_SCALE`].
pub fn spec(seed: u64) -> RunSpec {
    RunSpec {
        scale: WIRE_SCALE,
        seed,
        workers: 2,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    }
}

/// A running `report serve --pool 2` child process with its own journal
/// directory. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    pub journal: PathBuf,
}

impl Server {
    pub fn spawn(report_bin: &Path, dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        let journal = dir.join("journal");
        std::fs::create_dir_all(&journal)
            .map_err(|e| format!("cannot create `{}`: {e}", journal.display()))?;
        let port_file = dir.join("port");
        let child = Command::new(report_bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--pool", "2"])
            .arg("--journal-dir")
            .arg(&journal)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", report_bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            journal,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if !addr.trim().is_empty() {
                    server.addr = addr.trim().to_string();
                    return Ok(server);
                }
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("server exited at start-up: {status}"));
                }
            }
            if Instant::now() > deadline {
                return Err("server wrote no port file within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Asks the server to stop and waits for it to exit (killing it
    /// after 10 s).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr).and_then(|mut c| c.call(&Request::Shutdown));
        let mut child = self.child.take().expect("a live server has a child");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server stopped badly: {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server ignored shutdown; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect `{addr}`: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line (a single write) and reads the response
    /// line; returns the parsed response and its length in bytes.
    pub fn call(&mut self, request: &Request) -> Result<(Response, usize), String> {
        let mut line = request.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".to_string());
        }
        let bytes = response.len();
        Ok((Response::parse(response.trim_end())?, bytes))
    }
}

/// Runs `spec` cold so later `run`s, `status`es, `health`s and
/// `report`s of its key are hits.
pub fn prime(addr: &str, specs: &[RunSpec]) -> Result<(), String> {
    let mut conn = Conn::connect(addr)?;
    for spec in specs {
        let (r, _) = conn.call(&Request::Run(*spec))?;
        if !r.is_ok() {
            return Err(format!("priming run failed: {:?}", r.error_text()));
        }
    }
    Ok(())
}

/// One answered (or failed) request of a session.
pub struct Outcome {
    pub verb: Verb,
    pub timing: Timing,
    /// CPU ticks from send to response.
    pub ticks: CpuTicks,
    pub bytes: usize,
    /// Server-side compute (`wall_us`), where the response carries it.
    pub compute_ms: Option<f64>,
    /// `run`: whether the server answered from its cache.
    pub cached: Option<bool>,
    /// `Err` says why the response is wrong.
    pub verdict: Result<(), String>,
    /// Cold runs: the spec, so its world can be sized afterwards.
    pub cold: Option<RunSpec>,
    /// `report`: (hot key index, snapshot).
    pub snapshot: Option<(usize, String)>,
}

impl Outcome {
    /// Latency from the due time, less the share of the CPU time
    /// wanted between send and response that was stolen (see
    /// [`steal`]). Short waits on timers stand as measured.
    pub fn latency_ms(&self) -> f64 {
        steal::adjust(self.timing.latency_ms(), self.ticks)
    }
}

/// What a session sends: hot specs already primed, and a pass number
/// that keeps cold and advance seeds of different sessions apart.
pub struct Plan {
    pub seed: u64,
    pub pass: u64,
    pub hot: Vec<RunSpec>,
    pub seconds: f64,
}

/// Per-connection state: its rotating advance key.
struct ClientState {
    advance_spec: RunSpec,
    advance_epoch: u32,
    advance_keys: u64,
    cold_runs: u64,
}

/// Drives an open-loop session, one connection per lane: slot `k` of a
/// lane is due `k / rate` seconds after the start. Returns every
/// outcome plus the session's wall time in milliseconds.
pub fn session(addr: &str, plan: &Plan) -> Result<(Vec<Outcome>, f64), String> {
    let hot_keys: Vec<String> = plan
        .hot
        .iter()
        .map(|s| s.run_key().map_err(|e| format!("run key: {e}")))
        .collect::<Result<_, _>>()?;
    let mut conns = [Conn::connect(addr)?, Conn::connect(addr)?];
    let start = Instant::now();
    let logs: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(LANES)
            .enumerate()
            .map(|(c, (conn, (rate, deck)))| {
                let slots = session_slots(plan.seconds, rate, deck);
                let groups = schedule(
                    deck,
                    derive(plan.seed, 0x5E55, plan.pass * 2 + c as u64),
                    slots,
                );
                let hot_keys = &hot_keys;
                scope.spawn(move || client(conn, c, rate, plan, &groups, hot_keys, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut all: Vec<Outcome> = logs.into_iter().flatten().collect();
    all.sort_by(|a, b| a.timing.due_ms.total_cmp(&b.timing.due_ms));
    Ok((all, wall_ms))
}

fn client(
    conn: &mut Conn,
    c: usize,
    rate: f64,
    plan: &Plan,
    groups: &[&[Verb]],
    hot_keys: &[String],
    start: Instant,
) -> Vec<Outcome> {
    let stream = derive(plan.seed, 0xC11E, plan.pass * 2 + c as u64);
    let mut state = ClientState {
        advance_spec: RunSpec::default(),
        advance_epoch: ADVANCE_EPOCHS,
        advance_keys: 0,
        cold_runs: 0,
    };
    let ms = |t: Instant| t.saturating_duration_since(start).as_secs_f64() * 1e3;
    let mut ready = start;
    let mut out = Vec::new();
    for (slot, &verb) in groups
        .iter()
        .enumerate()
        .flat_map(|(slot, g)| g.iter().map(move |v| (slot, v)))
    {
        let due = due_ms(slot, rate);
        let wait = due - ms(Instant::now());
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
        }
        let hot = (derive(stream, 0x407, slot as u64) % hot_keys.len() as u64) as usize;
        let (request, cold) = request_for(verb, plan, hot, &hot_keys[hot], stream, &mut state);
        let sent = Instant::now();
        let sent_ticks = CpuTicks::now();
        let reply = conn.call(&request);
        let done = Instant::now();
        let ticks = sent_ticks.until(CpuTicks::now());
        let timing = Timing {
            due_ms: due,
            ready_ms: ms(ready),
            sent_ms: ms(sent),
            done_ms: ms(done),
        };
        ready = done;
        let (bytes, compute_ms, cached, verdict, snapshot) = match reply {
            Ok((r, bytes)) => {
                let compute_ms = r
                    .field("wall_us")
                    .and_then(serde::Value::as_f64)
                    .map(|us| us / 1e3);
                let snapshot = (verb == Verb::Report)
                    .then(|| r.str_field("snapshot").map(|s| (hot, s.to_string())))
                    .flatten();
                let cached = r.bool_field("cached");
                (bytes, compute_ms, cached, judge(verb, &r, &state), snapshot)
            }
            Err(e) => (
                0,
                None,
                None,
                Err(format!("{} transport: {e}", verb.name())),
                None,
            ),
        };
        out.push(Outcome {
            verb,
            timing,
            ticks,
            bytes,
            compute_ms,
            cached,
            verdict,
            cold,
            snapshot,
        });
    }
    out
}

fn request_for(
    verb: Verb,
    plan: &Plan,
    hot: usize,
    key: &str,
    stream: u64,
    state: &mut ClientState,
) -> (Request, Option<RunSpec>) {
    match verb {
        Verb::Status => (Request::Status(key.to_string()), None),
        Verb::Health => (Request::Health(key.to_string()), None),
        Verb::Report => (Request::Report(key.to_string()), None),
        Verb::RunHit => (Request::Run(plan.hot[hot]), None),
        Verb::RunCold => {
            state.cold_runs += 1;
            let s = spec(derive(stream, 0xC01D, state.cold_runs));
            (Request::Run(s), Some(s))
        }
        Verb::Advance => {
            if state.advance_epoch + 1 >= ADVANCE_EPOCHS {
                state.advance_keys += 1;
                state.advance_spec = RunSpec {
                    epochs: ADVANCE_EPOCHS,
                    ..spec(derive(stream, 0xAD7, state.advance_keys))
                };
                state.advance_epoch = 0;
            }
            state.advance_epoch += 1;
            (Request::Advance(state.advance_spec), None)
        }
    }
}

/// Whether a response is the right answer to its request.
fn judge(verb: Verb, r: &Response, state: &ClientState) -> Result<(), String> {
    if !r.is_ok() {
        return Err(format!(
            "{} answered error: {:?}",
            verb.name(),
            r.error_text()
        ));
    }
    let bad = |what: &str| Err(format!("{}: {what}", verb.name()));
    match verb {
        Verb::RunHit if r.bool_field("cached") != Some(true) => bad("hot run not cached"),
        Verb::RunCold if r.bool_field("cached") != Some(false) => bad("cold run was cached"),
        Verb::Status if r.str_field("status") != Some("ready") => bad("hot key not ready"),
        Verb::Report if r.str_field("snapshot").is_none() => bad("no snapshot"),
        Verb::Advance
            if r.field("epoch").and_then(serde::Value::as_u64)
                != Some(u64::from(state.advance_epoch)) =>
        {
            bad("advanced to the wrong epoch")
        }
        _ => Ok(()),
    }
}

/// Counts every outcome into `checks`, then checks that all wire
/// reports of one key agree and equal `reference` (the batch snapshot
/// of each hot spec, computed in-process).
pub fn check(outcomes: &[Outcome], reference: &[String], checks: &mut Checks) {
    for o in outcomes {
        checks.op(o.verdict.clone());
        if let Some((hot, snapshot)) = &o.snapshot {
            if snapshot != &reference[*hot] {
                checks.fail(&format!(
                    "wire report of hot key {hot} differs from batch snapshot"
                ));
            }
        }
    }
}

/// Total size and count of the files under `dir`.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_send_whole_decks() {
        let deck: Deck = &[(&[Verb::Advance], 1), (&[Verb::RunCold], 1)];
        assert_eq!(session_slots(25.0, 0.5, deck), 14);
        assert_eq!(session_slots(24.0, 0.5, deck), 12);
        for seed in 0..20 {
            let cold = schedule(deck, seed, 14)
                .iter()
                .filter(|g| g[0] == Verb::RunCold)
                .count();
            assert_eq!(cold, 7);
        }
    }

    #[test]
    fn schedule_is_seeded_and_keeps_the_mix() {
        let mut counts = std::collections::HashMap::new();
        let mut total = 0.0;
        for (c, (rate, deck)) in LANES.into_iter().enumerate() {
            let slots = 40 * deck.iter().map(|d| d.1).sum::<usize>();
            let a = schedule(deck, c as u64, slots);
            assert_eq!(a, schedule(deck, c as u64, slots));
            assert_ne!(a, schedule(deck, 99, slots));
            // Requests per second of each verb on this lane.
            for g in &a {
                for v in *g {
                    *counts.entry(v.name()).or_insert(0.0) += rate / slots as f64;
                    total += rate / slots as f64;
                }
            }
        }
        assert!((total - 9.0).abs() < 1e-9, "offered {total} req/s");
        let share = |v: Verb| counts[v.name()] / total;
        assert!((share(Verb::Report) - 1.5 / 9.0).abs() < 1e-9);
        assert!((share(Verb::Advance) - 0.25 / 9.0).abs() < 1e-9);
        assert!((share(Verb::RunCold) - 0.25 / 9.0).abs() < 1e-9);
        let small = share(Verb::Status) + share(Verb::Health) + share(Verb::RunHit);
        assert!((small - 7.0 / 9.0).abs() < 1e-9);
        assert_eq!(counts.len(), VERBS.len());
    }
}
