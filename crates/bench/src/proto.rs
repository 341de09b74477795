//! The line-delimited JSON wire protocol spoken by `serve`.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream — friendly enough to drive from `nc`:
//!
//! ```text
//! {"cmd":"run","scale":0.02,"seed":123,"workers":2}
//! {"cmd":"advance","scale":0.02,"seed":123,"epochs":4}
//! {"cmd":"status","run_key":"f3a1…"}
//! {"cmd":"report","run_key":"f3a1…"}
//! {"cmd":"health","run_key":"f3a1…"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Every response carries `"ok"`; failures carry `"error"` instead of
//! payload fields. The `report` response embeds the determinism
//! snapshot (the exact bytes `--snapshot-json` writes) as one JSON
//! string field, so a wire client can recover a byte-identical file.
//!
//! Encoding and decoding are hand-rolled over the JSON [`Value`] tree
//! rather than derived, so a malformed request degrades into a precise
//! one-line error response instead of a serde stack trace.

use ewhoring_core::pipeline::RunSpec;
use serde::Value;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute (or serve from cache) the run described by the spec.
    Run(RunSpec),
    /// Advance the epoch engine for a streaming spec (`epochs > 0`) and
    /// return the post-advance snapshot. `upto: 0` means "one epoch
    /// further than wherever the engine is".
    Advance(RunSpec),
    /// Lifecycle of a run key: unknown / running / ready / failed.
    Status(String),
    /// The determinism snapshot of a finished run.
    Report(String),
    /// Per-stage timings, quarantine and crawl health of a finished run.
    Health(String),
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// Renders the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut map = serde::Map::new();
        match self {
            Request::Run(spec) | Request::Advance(spec) => {
                let cmd = match self {
                    Request::Run(_) => "run",
                    _ => "advance",
                };
                map.insert("cmd", Value::Str(cmd.into()));
                map.insert("scale", Value::Float(spec.scale));
                map.insert("seed", Value::UInt(spec.seed.into()));
                map.insert("workers", Value::UInt(spec.workers as u128));
                map.insert("faults", Value::Float(spec.faults));
                map.insert("corruption", Value::Float(spec.corruption));
                map.insert("epochs", Value::UInt(spec.epochs as u128));
                map.insert("upto", Value::UInt(spec.upto as u128));
                map.insert("shards", Value::UInt(spec.shards as u128));
            }
            Request::Status(key) | Request::Report(key) | Request::Health(key) => {
                let cmd = match self {
                    Request::Status(_) => "status",
                    Request::Report(_) => "report",
                    _ => "health",
                };
                map.insert("cmd", Value::Str(cmd.into()));
                map.insert("run_key", Value::Str(key.clone()));
            }
            Request::Shutdown => {
                map.insert("cmd", Value::Str("shutdown".into()));
            }
        }
        serde::render(&Value::Object(map))
    }

    /// Parses one wire line. Unknown commands, missing fields, and
    /// mistyped values are all descriptive errors.
    pub fn decode(line: &str) -> Result<Request, String> {
        let value = serde::parse(line).map_err(|e| format!("request is not JSON: {}", e.0))?;
        let map = value
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        let cmd = map
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| "request needs a string `cmd` field".to_string())?;
        match cmd {
            "run" => Ok(Request::Run(decode_spec(map)?)),
            "advance" => Ok(Request::Advance(decode_spec(map)?)),
            "status" => Ok(Request::Status(run_key_field(map)?)),
            "report" => Ok(Request::Report(run_key_field(map)?)),
            "health" => Ok(Request::Health(run_key_field(map)?)),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown cmd `{other}` (expected run/advance/status/report/health/shutdown)"
            )),
        }
    }
}

fn run_key_field(map: &serde::Map) -> Result<String, String> {
    map.get("run_key")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "request needs a string `run_key` field".to_string())
}

/// Reads one optional numeric field, defaulting when absent.
fn f64_field(map: &serde::Map, name: &str, default: f64) -> Result<f64, String> {
    match map.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("field `{name}` must be a number")),
    }
}

fn u64_field(map: &serde::Map, name: &str, default: u64) -> Result<u64, String> {
    match map.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field `{name}` must be a non-negative integer")),
    }
}

/// Reads one optional integer field and narrows it to `T`, rejecting a
/// value `T` cannot hold instead of truncating it.
fn narrow_field<T: TryFrom<u64>>(map: &serde::Map, name: &str, default: u64) -> Result<T, String> {
    let v = u64_field(map, name, default)?;
    T::try_from(v).map_err(|_| format!("field `{name}` is out of range: {v}"))
}

/// Decodes a run spec from a `run` request; every field is optional and
/// defaults match the batch CLI's defaults. A spec that fails
/// [`RunSpec::validate`] is rejected here, before it reaches a worker.
fn decode_spec(map: &serde::Map) -> Result<RunSpec, String> {
    let defaults = RunSpec::default();
    let spec = RunSpec {
        scale: f64_field(map, "scale", defaults.scale)?,
        seed: u64_field(map, "seed", defaults.seed)?,
        workers: narrow_field(map, "workers", defaults.workers as u64)?,
        faults: f64_field(map, "faults", defaults.faults)?,
        corruption: f64_field(map, "corruption", defaults.corruption)?,
        epochs: narrow_field(map, "epochs", defaults.epochs.into())?,
        upto: narrow_field(map, "upto", defaults.upto.into())?,
        shards: narrow_field(map, "shards", defaults.shards as u64)?,
    };
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// A parsed response line, with typed accessors over the raw tree.
#[derive(Debug, Clone)]
pub struct Response(pub Value);

impl Response {
    /// Builds a success response from `(field, value)` pairs; `ok` is
    /// always set.
    pub fn ok(fields: Vec<(&str, Value)>) -> String {
        let mut map = serde::Map::new();
        map.insert("ok", Value::Bool(true));
        for (k, v) in fields {
            map.insert(k, v);
        }
        serde::render(&Value::Object(map))
    }

    /// Builds an error response line.
    pub fn error(msg: impl Into<String>) -> String {
        let mut map = serde::Map::new();
        map.insert("ok", Value::Bool(false));
        map.insert("error", Value::Str(msg.into()));
        serde::render(&Value::Object(map))
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        serde::parse(line)
            .map(Response)
            .map_err(|e| format!("response is not JSON: {}", e.0))
    }

    /// Whether the server reported success.
    pub fn is_ok(&self) -> bool {
        self.field("ok").and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }) == Some(true)
    }

    /// Raw field access.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.0.as_object().and_then(|m| m.get(name))
    }

    /// String field access.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }

    /// Bool field access.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        self.field(name).and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The `error` text of a failed response, if any.
    pub fn error_text(&self) -> Option<&str> {
        self.str_field("error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips_with_all_knobs() {
        let streamed = RunSpec {
            scale: 0.02,
            seed: 0xDEAD_BEEF,
            workers: 2,
            faults: 0.5,
            corruption: 0.25,
            epochs: 4,
            upto: 3,
            shards: 0,
        };
        // Sharding is batch-only, so it round-trips on a batch spec.
        let sharded = RunSpec {
            epochs: 0,
            upto: 0,
            shards: 2,
            ..streamed
        };
        for spec in [streamed, sharded] {
            let line = Request::Run(spec).encode();
            assert_eq!(Request::decode(&line), Ok(Request::Run(spec)));
        }
    }

    #[test]
    fn specs_no_driver_runs_are_rejected_at_decode() {
        let err =
            Request::decode(r#"{"cmd":"run","scale":0.01,"epochs":3,"shards":2}"#).unwrap_err();
        assert!(err.contains("batch-only"), "{err}");
        let err = Request::decode(r#"{"cmd":"advance","epochs":3,"upto":4}"#).unwrap_err();
        assert!(err.contains("`upto` 4 exceeds `epochs` 3"), "{err}");
    }

    #[test]
    fn advance_request_round_trips() {
        let spec = RunSpec {
            scale: 0.02,
            seed: 7,
            epochs: 3,
            ..RunSpec::default()
        };
        let line = Request::Advance(spec).encode();
        assert_eq!(Request::decode(&line), Ok(Request::Advance(spec)));
    }

    #[test]
    fn run_request_fields_default_like_the_batch_cli() {
        let req = Request::decode(r#"{"cmd":"run","scale":0.1}"#).expect("decodes");
        let Request::Run(spec) = req else {
            panic!("expected Run");
        };
        let d = RunSpec::default();
        assert_eq!(spec.scale, 0.1);
        assert_eq!(
            (spec.seed, spec.workers, spec.faults, spec.corruption),
            (d.seed, d.workers, d.faults, d.corruption)
        );
        assert_eq!((spec.epochs, spec.upto), (0, 0), "batch by default");
        assert_eq!(spec.shards, 0, "unsharded by default");
    }

    #[test]
    fn keyed_requests_round_trip() {
        for req in [
            Request::Status("abc123".into()),
            Request::Report("abc123".into()),
            Request::Health("abc123".into()),
            Request::Shutdown,
        ] {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn malformed_requests_are_described_not_ignored() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("unknown cmd"));
        assert!(Request::decode(r#"{"cmd":"status"}"#)
            .unwrap_err()
            .contains("run_key"));
        assert!(Request::decode(r#"{"cmd":"run","scale":"big"}"#)
            .unwrap_err()
            .contains("scale"));
    }

    #[test]
    fn oversized_integers_are_rejected_not_truncated() {
        // 2^32 + 1 used to wrap to 1 when narrowed to `u32`.
        for field in ["epochs", "upto"] {
            let line = format!(r#"{{"cmd":"advance","{field}":4294967297}}"#);
            let err = Request::decode(&line).unwrap_err();
            assert!(err.contains(field) && err.contains("out of range"), "{err}");
        }
        let max = format!(r#"{{"cmd":"advance","epochs":{}}}"#, u32::MAX);
        assert!(Request::decode(&max).is_ok());
        assert!(Request::decode(r#"{"cmd":"run","shards":-1}"#)
            .unwrap_err()
            .contains("shards"));
    }

    #[test]
    fn non_positive_or_non_finite_scales_are_rejected() {
        for scale in ["-1", "0", "0.0", "-0.5", "1e999"] {
            let line = format!(r#"{{"cmd":"run","scale":{scale}}}"#);
            let err = Request::decode(&line).unwrap_err();
            assert!(err.contains("scale"), "{scale}: {err}");
        }
        assert!(Request::decode(r#"{"cmd":"advance","scale":-1,"epochs":2}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"run","scale":0.001}"#).is_ok());
    }

    #[test]
    fn responses_round_trip_including_embedded_snapshots() {
        // A snapshot payload is multi-line pretty JSON; it must survive
        // the one-line wire encoding byte-for-byte.
        let snapshot = "{\n  \"a\": 1,\n  \"b\": \"x\\\"y\"\n}\n";
        let line = Response::ok(vec![
            ("run_key", Value::Str("k".into())),
            ("snapshot", Value::Str(snapshot.into())),
        ]);
        assert!(!line.contains('\n'));
        let parsed = Response::parse(&line).expect("parses");
        assert!(parsed.is_ok());
        assert_eq!(parsed.str_field("snapshot"), Some(snapshot));

        let err = Response::parse(&Response::error("boom")).expect("parses");
        assert!(!err.is_ok());
        assert_eq!(err.error_text(), Some("boom"));
    }
}
