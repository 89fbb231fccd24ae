//! `confanon serve` — the fault-tolerant multi-tenant anonymization
//! daemon.
//!
//! The paper's workflow is one-shot batch anonymization; the
//! clearinghouse vision (§7) is a *service*: many operators submit
//! configuration files over months, and each operator's mappings must
//! stay consistent across submissions yet strictly isolated from every
//! other operator's. This module provides that service on `std` alone —
//! scoped threads and a poll-based blocking accept loop, no async
//! runtime — reusing the existing pillars: [`crate::state::AnonState`]
//! for resident-and-persistent per-tenant mapping state,
//! [`crate::fsx::write_atomic`] for torn-write-free flushes, and the
//! §6.1 leak gate per request.
//!
//! ## Wire protocol
//!
//! A length-prefixed line protocol, same shape both directions: one
//! ASCII header line, then exactly `len` payload bytes.
//!
//! ```text
//! request:  "CONFANON/1 <VERB> <tenant> <name> <len>\n" + payload
//! response: "CONFANON/1 <STATUS> <len>\n" + payload
//! ```
//!
//! Verbs: `ANON` (anonymize `payload` under `<tenant>`'s state as file
//! `<name>`), `FLUSH` (durably flush a tenant's state now), `STATS`
//! (the `confanon-serve-metrics-v1` document), `PING`, `SHUTDOWN`
//! (graceful drain, same as `SIGTERM`). Tenant/name positions use `-`
//! when a verb does not need them. Tokens are restricted to
//! `[A-Za-z0-9._-]` (≤ 128 bytes); payloads are capped at
//! [`MAX_PAYLOAD`] — a malformed header or oversized length is answered
//! with an `ERROR` frame and the connection is closed, never buffered.
//!
//! Response statuses and the robustness contract they encode:
//!
//! * `OK` — payload is the anonymized text (or requested document).
//! * `BUSY` — the tenant's bounded queue is full. *Retriable*: nothing
//!   was processed, nothing was buffered. Back-pressure is explicit.
//! * `TIMEOUT` — the request exceeded the per-request deadline while
//!   queued or processing. Retriable: mappings are sticky, so a replay
//!   returns byte-identical output.
//! * `ERROR` — the request failed closed (contained panic, flush
//!   failure, malformed frame). The tenant's resident state is the
//!   state from *before* the request.
//! * `QUARANTINED` — the §6.1 gate found residual identifiers in this
//!   request's output; the bytes are withheld and the tenant enters
//!   quarantine. The payload is the `confanon-leak-report-v1` document
//!   `batch` writes as `leak_report.json`, for the one file.
//! * `TENANT-QUARANTINED` — the tenant is quarantined (leak hit
//!   earlier, or its persisted state was unusable at startup); the
//!   payload says which.
//! * `DEGRADED` — the payload *is* the anonymized text (mappings are
//!   resident and sticky), but a permanent fs error suspended this
//!   tenant's durable flushing; a recovery probe resumes flushing (and
//!   plain `OK`) once the state directory heals.
//! * `UNKNOWN-TENANT`, `DRAINING`, `BYE` — routing/lifecycle statuses.
//!
//! ## Hostile wire
//!
//! DESIGN §15 specifies the fail-closed-but-keep-serving envelope this
//! module enforces per connection: a malformed frame is classified by
//! [`FrameDefect`] and answered with one `ERROR` frame before the
//! close; a connection that dribbles a frame past `read_deadline_ms`
//! or goes byte-silent past `idle_timeout_ms` is closed; a payload
//! over a tenant's `max_request_bytes` quota is rejected without
//! touching the worker; and connections past `max_connections` are
//! shed with a retriable `BUSY` frame carrying a `retry-after-ms=`
//! hint. Every such event feeds the `daemon.faults` counters of the
//! `confanon-serve-metrics-v1` document. The seeded chaos harness in
//! `confanon_testkit::netchaos` replays all of it deterministically.
//!
//! ## Drain and recovery
//!
//! `SIGTERM` or a `SHUTDOWN` frame sets one flag. The accept loop
//! closes, in-flight and already-queued requests finish, idle
//! connections receive `DRAINING`, every tenant's state is flushed
//! through `write_atomic`, and the daemon exits 0. A `kill -9` instead
//! loses nothing that was acknowledged: with `flush = "request"` each
//! `OK` response is sent only *after* the tenant state hit stable
//! storage, so a restart reloads every acknowledged mapping via the
//! state verification path and unacknowledged requests are safely
//! replayed (sticky mappings make replay byte-identical). A tenant
//! whose state file is torn or foreign is quarantined with a distinct
//! error while healthy tenants keep serving.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use confanon_testkit::json::Json;

use crate::error::AnonError;
use crate::fsx::{write_atomic, DurabilityStats, StdFs};
use crate::rules::RuleId;
use crate::signals;
use crate::tenant::{FlushMode, Tenant, TenantSpec};

/// Protocol magic + version, the first token of every frame header.
pub const PROTOCOL: &str = "CONFANON/1";

/// Hard cap on a frame payload. A header may not announce more: the
/// daemon answers `ERROR` and closes instead of buffering unboundedly.
pub const MAX_PAYLOAD: usize = 4 * 1024 * 1024;

/// Hard cap on a frame header line (defense against a peer that never
/// sends a newline).
pub const MAX_HEADER: usize = 1024;

/// Default bound of each tenant's work queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 8;

/// Default per-request deadline (queue wait + processing), in ms.
pub const DEFAULT_REQUEST_TIMEOUT_MS: u64 = 10_000;

/// Default idle timeout: a connection that delivers no bytes for this
/// long is closed (it was previously held forever).
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 30_000;

/// Default read deadline: the maximum wall-clock a single frame may
/// take from its first byte to completion. Defeats slowloris dribble
/// that always makes *some* progress and so never trips the idle clock.
pub const DEFAULT_READ_DEADLINE_MS: u64 = 10_000;

/// Default bound on concurrently-served connections; arrivals beyond it
/// are shed with a retriable `BUSY` frame carrying a backoff hint.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Default interval between tenant recovery probes (state-quarantine
/// re-verification and degraded-flush retries).
pub const DEFAULT_RECOVERY_PROBE_MS: u64 = 1_000;

/// Default `retry-after-ms` hint carried by `BUSY` frames.
pub const DEFAULT_BUSY_RETRY_HINT_MS: u64 = 100;

/// How often blocked loops (accept poll, idle connection reads) wake to
/// check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Read timeout on accepted connections: the granularity at which an
/// idle connection notices a drain.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// A request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Anonymize the payload under a tenant's resident state.
    Anon,
    /// Durably flush a tenant's state now.
    Flush,
    /// Return the `confanon-serve-metrics-v1` stats document.
    Stats,
    /// Liveness check.
    Ping,
    /// Graceful drain, equivalent to `SIGTERM`.
    Shutdown,
}

impl Verb {
    /// The wire token.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Anon => "ANON",
            Verb::Flush => "FLUSH",
            Verb::Stats => "STATS",
            Verb::Ping => "PING",
            Verb::Shutdown => "SHUTDOWN",
        }
    }

    /// Parses the wire token.
    pub fn parse(s: &str) -> Option<Verb> {
        match s {
            "ANON" => Some(Verb::Anon),
            "FLUSH" => Some(Verb::Flush),
            "STATS" => Some(Verb::Stats),
            "PING" => Some(Verb::Ping),
            "SHUTDOWN" => Some(Verb::Shutdown),
            _ => None,
        }
    }
}

/// A response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; payload is the result.
    Ok,
    /// Tenant queue full; retriable, nothing buffered.
    Busy,
    /// This request's output tripped the leak gate; tenant quarantined.
    Quarantined,
    /// The tenant is quarantined (earlier leak hit or unusable state).
    TenantQuarantined,
    /// Success — payload is the anonymized text — but the tenant's
    /// durable flushing is suspended by a permanent fs error; the
    /// mapping is resident-only until a recovery probe lands a flush.
    Degraded,
    /// No such tenant in the daemon's configuration.
    UnknownTenant,
    /// Per-request deadline exceeded; retriable (mappings are sticky).
    Timeout,
    /// The request failed closed; tenant state unchanged.
    Error,
    /// The daemon is draining; reconnect after restart.
    Draining,
    /// Acknowledges a `SHUTDOWN` frame.
    Bye,
}

impl Status {
    /// The wire token.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Busy => "BUSY",
            Status::Quarantined => "QUARANTINED",
            Status::TenantQuarantined => "TENANT-QUARANTINED",
            Status::Degraded => "DEGRADED",
            Status::UnknownTenant => "UNKNOWN-TENANT",
            Status::Timeout => "TIMEOUT",
            Status::Error => "ERROR",
            Status::Draining => "DRAINING",
            Status::Bye => "BYE",
        }
    }

    /// Parses the wire token.
    pub fn parse(s: &str) -> Option<Status> {
        match s {
            "OK" => Some(Status::Ok),
            "BUSY" => Some(Status::Busy),
            "QUARANTINED" => Some(Status::Quarantined),
            "TENANT-QUARANTINED" => Some(Status::TenantQuarantined),
            "DEGRADED" => Some(Status::Degraded),
            "UNKNOWN-TENANT" => Some(Status::UnknownTenant),
            "TIMEOUT" => Some(Status::Timeout),
            "ERROR" => Some(Status::Error),
            "DRAINING" => Some(Status::Draining),
            "BYE" => Some(Status::Bye),
            _ => None,
        }
    }

    /// Whether a client may simply resend the same request: the daemon
    /// guarantees nothing happened (`BUSY`) or that a replay is
    /// byte-identical (`TIMEOUT`, sticky mappings).
    pub fn retriable(self) -> bool {
        matches!(self, Status::Busy | Status::Timeout)
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub verb: Verb,
    /// Target tenant (`-` on the wire when unused).
    pub tenant: String,
    /// Submission name, the per-tenant state's file key.
    pub name: String,
    /// The raw bytes to anonymize (empty for control verbs).
    pub payload: Vec<u8>,
}

/// Whether `s` is a legal tenant/name token.
pub fn valid_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Encodes a request frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = format!(
        "{PROTOCOL} {} {} {} {}\n",
        req.verb.name(),
        req.tenant,
        req.name,
        req.payload.len()
    )
    .into_bytes();
    out.extend_from_slice(&req.payload);
    out
}

/// Encodes a response frame.
pub fn encode_response(status: Status, payload: &[u8]) -> Vec<u8> {
    let mut out = format!("{PROTOCOL} {} {}\n", status.name(), payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out
}

/// The malformed-frame taxonomy (DESIGN §15). Every frame a peer can
/// send that is not a well-formed request lands in exactly one class;
/// the daemon answers with one `ERROR` frame naming the class
/// (`malformed-frame/<class>: detail`), counts it into
/// `daemon.faults.frames_rejected`, and closes the connection — it
/// never buffers past the caps and never lets garbage near a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDefect {
    /// The first token was not [`PROTOCOL`].
    BadProtocol(String),
    /// The verb token names no known verb.
    UnknownVerb(String),
    /// A tenant/name token violates the token grammar, or a required
    /// token was the `-` placeholder.
    BadToken(String),
    /// The length field is not a base-10 integer.
    BadLength(String),
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: usize,
    },
    /// The header line exceeds [`MAX_HEADER`] bytes (with or without a
    /// newline in sight).
    HeaderOverflow,
    /// The header line is not UTF-8.
    NotUtf8,
    /// The header does not have exactly five space-separated fields.
    FieldCount(usize),
}

impl FrameDefect {
    /// The stable class slug, the token after `malformed-frame/` in
    /// `ERROR` payloads.
    pub fn class(&self) -> &'static str {
        match self {
            FrameDefect::BadProtocol(_) => "bad-protocol",
            FrameDefect::UnknownVerb(_) => "unknown-verb",
            FrameDefect::BadToken(_) => "bad-token",
            FrameDefect::BadLength(_) => "bad-length",
            FrameDefect::Oversized { .. } => "oversized-payload",
            FrameDefect::HeaderOverflow => "header-overflow",
            FrameDefect::NotUtf8 => "non-utf8-header",
            FrameDefect::FieldCount(_) => "field-count",
        }
    }
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed-frame/{}: ", self.class())?;
        match self {
            FrameDefect::BadProtocol(got) => {
                write!(f, "unknown protocol {got:?} (expected {PROTOCOL})")
            }
            FrameDefect::UnknownVerb(got) => write!(f, "unknown verb {got:?}"),
            FrameDefect::BadToken(detail) => write!(f, "{detail}"),
            FrameDefect::BadLength(got) => write!(f, "invalid length {got:?}"),
            FrameDefect::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            FrameDefect::HeaderOverflow => {
                write!(f, "header exceeds {MAX_HEADER} bytes")
            }
            FrameDefect::NotUtf8 => write!(f, "header is not UTF-8"),
            FrameDefect::FieldCount(got) => {
                write!(f, "expected 5 space-separated fields, got {got}")
            }
        }
    }
}

fn parse_request_header(line: &str) -> Result<(Verb, String, String, usize), FrameDefect> {
    let parts: Vec<&str> = line.split(' ').collect();
    let [magic, verb, tenant, name, len] = parts.as_slice() else {
        return Err(FrameDefect::FieldCount(parts.len()));
    };
    if *magic != PROTOCOL {
        return Err(FrameDefect::BadProtocol((*magic).to_string()));
    }
    let Some(verb) = Verb::parse(verb) else {
        return Err(FrameDefect::UnknownVerb((*verb).to_string()));
    };
    let token_ok = |t: &str| t == "-" || valid_token(t);
    if !token_ok(tenant) {
        return Err(FrameDefect::BadToken(format!(
            "invalid tenant token {tenant:?}"
        )));
    }
    if !token_ok(name) {
        return Err(FrameDefect::BadToken(format!("invalid name token {name:?}")));
    }
    match verb {
        Verb::Anon if *tenant == "-" || *name == "-" => {
            return Err(FrameDefect::BadToken(
                "ANON requires a tenant and a name".to_string(),
            ));
        }
        Verb::Flush if *tenant == "-" => {
            return Err(FrameDefect::BadToken("FLUSH requires a tenant".to_string()));
        }
        _ => {}
    }
    let Ok(len) = len.parse::<usize>() else {
        return Err(FrameDefect::BadLength((*len).to_string()));
    };
    if len > MAX_PAYLOAD {
        return Err(FrameDefect::Oversized { len });
    }
    Ok((verb, tenant.to_string(), name.to_string(), len))
}

/// What one poll of a connection produced.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete request frame.
    Request(Request),
    /// The peer closed (or the connection broke).
    Eof,
    /// No complete frame yet; poll again (and check the drain flag).
    Idle,
    /// The peer sent garbage; answer `ERROR` and close.
    Malformed(FrameDefect),
}

/// Incremental frame reader over a stream with a read timeout. Keeps
/// partial bytes across polls so a drain check never loses data, and
/// enforces the header/payload caps before buffering.
#[derive(Debug, Default)]
pub struct FrameReader {
    pending: Vec<u8>,
}

impl FrameReader {
    /// A fresh reader with no buffered bytes.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads once from `stream` and returns the resulting event. A
    /// timeout maps to [`ReadEvent::Idle`]; connection errors map to
    /// [`ReadEvent::Eof`] (the response channel is gone either way).
    pub fn poll(&mut self, stream: &mut dyn Read) -> ReadEvent {
        if let Some(ev) = self.try_parse() {
            return ev;
        }
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => ReadEvent::Eof,
            Ok(n) => {
                self.pending.extend_from_slice(&buf[..n]);
                self.try_parse().unwrap_or(ReadEvent::Idle)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                ReadEvent::Idle
            }
            Err(_) => ReadEvent::Eof,
        }
    }

    /// Bytes buffered toward the next frame — the progress signal the
    /// connection handler's idle/read-deadline clocks key off.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    fn try_parse(&mut self) -> Option<ReadEvent> {
        let Some(nl) = self.pending.iter().position(|&b| b == b'\n') else {
            if self.pending.len() > MAX_HEADER {
                return Some(ReadEvent::Malformed(FrameDefect::HeaderOverflow));
            }
            return None;
        };
        if nl > MAX_HEADER {
            return Some(ReadEvent::Malformed(FrameDefect::HeaderOverflow));
        }
        let header = match std::str::from_utf8(&self.pending[..nl]) {
            Ok(h) => h,
            Err(_) => return Some(ReadEvent::Malformed(FrameDefect::NotUtf8)),
        };
        let (verb, tenant, name, len) = match parse_request_header(header) {
            Ok(parts) => parts,
            Err(m) => return Some(ReadEvent::Malformed(m)),
        };
        let total = nl + 1 + len;
        if self.pending.len() < total {
            return None;
        }
        let payload = self.pending[nl + 1..total].to_vec();
        self.pending.drain(..total);
        Some(ReadEvent::Request(Request {
            verb,
            tenant,
            name,
            payload,
        }))
    }
}

// ---------------------------------------------------------------------
// confanon.toml
// ---------------------------------------------------------------------

/// Parsed `confanon.toml` — the daemon's endpoint, robustness knobs,
/// and tenant roster. The accepted grammar is the TOML subset the
/// in-tree reader implements (documented on [`ServeConfig::parse`]);
/// there is no external TOML crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// TCP endpoint (`host:port`). Exactly one of `listen`/`socket`.
    pub listen: Option<String>,
    /// Unix socket path. Exactly one of `listen`/`socket`.
    pub socket: Option<PathBuf>,
    /// Bound of each tenant's work queue (back-pressure threshold).
    pub queue_depth: usize,
    /// Per-request deadline in milliseconds (queue wait + processing).
    pub request_timeout_ms: u64,
    /// Close a connection that delivers no bytes for this long (ms).
    pub idle_timeout_ms: u64,
    /// Close a connection whose in-progress frame takes longer than
    /// this to complete (ms) — the anti-slowloris clock.
    pub read_deadline_ms: u64,
    /// Bound on concurrently-served connections; excess arrivals are
    /// shed with a retriable `BUSY` frame.
    pub max_connections: usize,
    /// Interval between tenant recovery probes (ms).
    pub recovery_probe_ms: u64,
    /// The `retry-after-ms` hint `BUSY` frames carry (ms).
    pub busy_retry_hint_ms: u64,
    /// When tenant state is durably flushed.
    pub flush: FlushMode,
    /// The tenant roster, in file order.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: None,
            socket: None,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            request_timeout_ms: DEFAULT_REQUEST_TIMEOUT_MS,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            read_deadline_ms: DEFAULT_READ_DEADLINE_MS,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            recovery_probe_ms: DEFAULT_RECOVERY_PROBE_MS,
            busy_retry_hint_ms: DEFAULT_BUSY_RETRY_HINT_MS,
            flush: FlushMode::Request,
            tenants: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Int(u64),
    Bool(bool),
}

fn config_err(path: &str, line_no: usize, message: impl std::fmt::Display) -> AnonError {
    AnonError::ConfigInvalid {
        path: path.to_string(),
        message: format!("line {line_no}: {message}"),
    }
}

/// Strips a `#` comment that is outside double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(raw: &str) -> Result<TomlValue, String> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return Err(format!("unterminated string {raw:?}"));
        };
        if inner.contains('"') {
            return Err("strings may not contain embedded quotes".to_string());
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if !raw.is_empty() && raw.bytes().all(|b| b.is_ascii_digit()) {
        return raw
            .parse::<u64>()
            .map(TomlValue::Int)
            .map_err(|e| e.to_string());
    }
    Err(format!(
        "unsupported value {raw:?} (expected \"string\", integer, true, or false)"
    ))
}

fn expect_str(path: &str, line_no: usize, key: &str, v: TomlValue) -> Result<String, AnonError> {
    match v {
        TomlValue::Str(s) => Ok(s),
        other => Err(config_err(
            path,
            line_no,
            format!("`{key}` expects a string, got {other:?}"),
        )),
    }
}

fn expect_int(path: &str, line_no: usize, key: &str, v: TomlValue) -> Result<u64, AnonError> {
    match v {
        TomlValue::Int(n) => Ok(n),
        other => Err(config_err(
            path,
            line_no,
            format!("`{key}` expects an integer, got {other:?}"),
        )),
    }
}

impl ServeConfig {
    /// Parses the `confanon.toml` grammar: top-level `key = value`
    /// pairs (`listen`, `socket`, `queue_depth`, `request_timeout_ms`,
    /// `idle_timeout_ms`, `read_deadline_ms`, `max_connections`,
    /// `recovery_probe_ms`, `busy_retry_hint_ms`,
    /// `flush = "request" | "drain"`), then one `[tenant.NAME]` section
    /// per tenant with `secret`, `state_dir`, and optional
    /// `disable_rule` (comma-separated rule names, validated against
    /// the rule table), `max_request_bytes` (per-tenant payload quota,
    /// ≤ [`MAX_PAYLOAD`]), and `queue_depth` (per-tenant override of
    /// the daemon-wide bound). Values are double-quoted strings (no escapes),
    /// unsigned integers, or `true`/`false`; `#` starts a comment.
    /// Unknown keys, duplicate tenants, shared state directories, and
    /// missing required keys are errors — the config gates secrets, so
    /// it is parsed strictly.
    pub fn parse(path: &str, text: &str) -> Result<ServeConfig, AnonError> {
        let mut cfg = ServeConfig::default();
        // A `[tenant.NAME]` section under construction; `line_no` is the
        // header's line, for error messages about missing keys.
        struct PartialTenant {
            name: String,
            secret: Option<String>,
            state_dir: Option<String>,
            disabled_rules: Vec<String>,
            max_request_bytes: usize,
            queue_depth: Option<usize>,
            line_no: usize,
        }
        let mut current: Option<PartialTenant> = None;
        let mut finished: Vec<TenantSpec> = Vec::new();

        let finish = |t: PartialTenant| -> Result<TenantSpec, AnonError> {
            let PartialTenant {
                name,
                secret,
                state_dir,
                disabled_rules,
                max_request_bytes,
                queue_depth,
                line_no,
            } = t;
            let Some(secret) = secret else {
                return Err(config_err(
                    path,
                    line_no,
                    format!("tenant {name:?} is missing `secret`"),
                ));
            };
            let Some(state_dir) = state_dir else {
                return Err(config_err(
                    path,
                    line_no,
                    format!("tenant {name:?} is missing `state_dir`"),
                ));
            };
            Ok(TenantSpec {
                name,
                secret: secret.into_bytes(),
                state_dir: PathBuf::from(state_dir),
                disabled_rules,
                max_request_bytes,
                queue_depth,
            })
        };

        for (i, raw_line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let Some(section) = section.strip_suffix(']') else {
                    return Err(config_err(path, line_no, "unterminated section header"));
                };
                let Some(tenant_name) = section.strip_prefix("tenant.") else {
                    return Err(config_err(
                        path,
                        line_no,
                        format!("unknown section [{section}] (only [tenant.NAME] is accepted)"),
                    ));
                };
                if !valid_token(tenant_name) || tenant_name == "-" {
                    return Err(config_err(
                        path,
                        line_no,
                        format!("invalid tenant name {tenant_name:?} (use [A-Za-z0-9._-])"),
                    ));
                }
                if let Some(t) = current.take() {
                    finished.push(finish(t)?);
                }
                current = Some(PartialTenant {
                    name: tenant_name.to_string(),
                    secret: None,
                    state_dir: None,
                    disabled_rules: Vec::new(),
                    max_request_bytes: MAX_PAYLOAD,
                    queue_depth: None,
                    line_no,
                });
                continue;
            }
            let Some((key, raw_value)) = line.split_once('=') else {
                return Err(config_err(
                    path,
                    line_no,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let key = key.trim();
            let value = parse_toml_value(raw_value).map_err(|m| config_err(path, line_no, m))?;
            match &mut current {
                None => match key {
                    "listen" => cfg.listen = Some(expect_str(path, line_no, key, value)?),
                    "socket" => {
                        cfg.socket =
                            Some(PathBuf::from(expect_str(path, line_no, key, value)?));
                    }
                    "queue_depth" => {
                        let n = expect_int(path, line_no, key, value)?;
                        if n == 0 || n > 4096 {
                            return Err(config_err(
                                path,
                                line_no,
                                "`queue_depth` must be between 1 and 4096",
                            ));
                        }
                        cfg.queue_depth = n as usize;
                    }
                    "request_timeout_ms" => {
                        let n = expect_int(path, line_no, key, value)?;
                        if n == 0 {
                            return Err(config_err(
                                path,
                                line_no,
                                "`request_timeout_ms` must be positive",
                            ));
                        }
                        cfg.request_timeout_ms = n;
                    }
                    "idle_timeout_ms" | "read_deadline_ms" | "recovery_probe_ms"
                    | "busy_retry_hint_ms" => {
                        let n = expect_int(path, line_no, key, value)?;
                        if n == 0 {
                            return Err(config_err(
                                path,
                                line_no,
                                format!("`{key}` must be positive"),
                            ));
                        }
                        match key {
                            "idle_timeout_ms" => cfg.idle_timeout_ms = n,
                            "read_deadline_ms" => cfg.read_deadline_ms = n,
                            "recovery_probe_ms" => cfg.recovery_probe_ms = n,
                            _ => cfg.busy_retry_hint_ms = n,
                        }
                    }
                    "max_connections" => {
                        let n = expect_int(path, line_no, key, value)?;
                        if n == 0 || n > 4096 {
                            return Err(config_err(
                                path,
                                line_no,
                                "`max_connections` must be between 1 and 4096",
                            ));
                        }
                        cfg.max_connections = n as usize;
                    }
                    "flush" => {
                        let s = expect_str(path, line_no, key, value)?;
                        cfg.flush = match FlushMode::parse(&s) {
                            Some(m) => m,
                            None => {
                                return Err(config_err(
                                    path,
                                    line_no,
                                    format!("`flush` must be \"request\" or \"drain\", got {s:?}"),
                                ));
                            }
                        };
                    }
                    other => {
                        return Err(config_err(
                            path,
                            line_no,
                            format!("unknown top-level key `{other}`"),
                        ));
                    }
                },
                Some(PartialTenant {
                    name,
                    secret,
                    state_dir,
                    disabled_rules: disabled,
                    max_request_bytes,
                    queue_depth,
                    ..
                }) => match key {
                    "secret" => {
                        let s = expect_str(path, line_no, key, value)?;
                        if s.is_empty() {
                            return Err(config_err(
                                path,
                                line_no,
                                format!("tenant {name:?}: `secret` may not be empty"),
                            ));
                        }
                        *secret = Some(s);
                    }
                    "state_dir" => {
                        let s = expect_str(path, line_no, key, value)?;
                        if s.is_empty() {
                            return Err(config_err(
                                path,
                                line_no,
                                format!("tenant {name:?}: `state_dir` may not be empty"),
                            ));
                        }
                        *state_dir = Some(s);
                    }
                    "disable_rule" => {
                        let spec = expect_str(path, line_no, key, value)?;
                        for rule in spec.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                            if RuleId::from_name(rule).is_none() {
                                return Err(config_err(
                                    path,
                                    line_no,
                                    format!("unknown rule {rule:?} (see `confanon rules`)"),
                                ));
                            }
                            disabled.push(rule.to_string());
                        }
                    }
                    "max_request_bytes" => {
                        let n = expect_int(path, line_no, key, value)?;
                        if n == 0 || n as usize > MAX_PAYLOAD {
                            return Err(config_err(
                                path,
                                line_no,
                                format!(
                                    "tenant {name:?}: `max_request_bytes` must be between 1 \
                                     and {MAX_PAYLOAD}"
                                ),
                            ));
                        }
                        *max_request_bytes = n as usize;
                    }
                    "queue_depth" => {
                        let n = expect_int(path, line_no, key, value)?;
                        if n == 0 || n > 4096 {
                            return Err(config_err(
                                path,
                                line_no,
                                format!("tenant {name:?}: `queue_depth` must be between 1 and 4096"),
                            ));
                        }
                        *queue_depth = Some(n as usize);
                    }
                    other => {
                        return Err(config_err(
                            path,
                            line_no,
                            format!("unknown tenant key `{other}`"),
                        ));
                    }
                },
            }
        }
        if let Some(t) = current.take() {
            finished.push(finish(t)?);
        }
        if finished.is_empty() {
            return Err(AnonError::ConfigInvalid {
                path: path.to_string(),
                message: "no [tenant.NAME] sections — a daemon with no tenants serves nothing"
                    .to_string(),
            });
        }
        let mut names = std::collections::BTreeSet::new();
        let mut dirs = std::collections::BTreeSet::new();
        for t in &finished {
            if !names.insert(t.name.clone()) {
                return Err(AnonError::ConfigInvalid {
                    path: path.to_string(),
                    message: format!("duplicate tenant {:?}", t.name),
                });
            }
            if !dirs.insert(t.state_dir.clone()) {
                return Err(AnonError::ConfigInvalid {
                    path: path.to_string(),
                    message: format!(
                        "tenants may not share a state_dir ({})",
                        t.state_dir.display()
                    ),
                });
            }
        }
        cfg.tenants = finished;
        Ok(cfg)
    }
}

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

/// Operational options that come from the CLI rather than the config.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Where to write the bound endpoint (`host:port` or `unix:PATH`)
    /// once listening — how tests and scripts discover an ephemeral
    /// port requested with `--listen 127.0.0.1:0`.
    pub port_file: Option<PathBuf>,
    /// Refuse to start (exit with the tenant-state code) if any
    /// tenant's persisted state is unusable, instead of the default
    /// per-tenant quarantine.
    pub require_clean_state: bool,
}

/// What a drained daemon run did, for the exit log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Frames dispatched (all verbs).
    pub requests: u64,
    /// `BUSY` back-pressure rejections.
    pub busy_rejections: u64,
    /// Tenants served.
    pub tenants: usize,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    fn configure(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(CONN_READ_TIMEOUT))?;
                s.set_write_timeout(Some(Duration::from_secs(10)))
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(CONN_READ_TIMEOUT))?;
                s.set_write_timeout(Some(Duration::from_secs(10)))
            }
        }
    }
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

fn bind_endpoint(cfg: &ServeConfig, config_path: &str) -> Result<(Listener, String), AnonError> {
    match (&cfg.listen, &cfg.socket) {
        (Some(_), Some(_)) | (None, None) => Err(AnonError::ConfigInvalid {
            path: config_path.to_string(),
            message: "exactly one of `listen` (TCP) and `socket` (Unix) must be set".to_string(),
        }),
        (Some(addr), None) => {
            let l = TcpListener::bind(addr).map_err(|e| AnonError::BindFailed {
                addr: addr.clone(),
                message: e.to_string(),
            })?;
            let advertised = match l.local_addr() {
                Ok(a) => a.to_string(),
                Err(_) => addr.clone(),
            };
            l.set_nonblocking(true).map_err(|e| AnonError::BindFailed {
                addr: addr.clone(),
                message: e.to_string(),
            })?;
            Ok((Listener::Tcp(l), advertised))
        }
        (None, Some(path)) => bind_unix(path),
    }
}

#[cfg(unix)]
fn bind_unix(path: &std::path::Path) -> Result<(Listener, String), AnonError> {
    use std::os::unix::net::{UnixListener, UnixStream};
    let addr = format!("unix:{}", path.display());
    let bind_err = |e: io::Error| AnonError::BindFailed {
        addr: addr.clone(),
        message: e.to_string(),
    };
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            // A socket file survives kill -9. If nothing answers it, the
            // file is stale residue of a dead daemon: reclaim it. If a
            // peer answers, a live daemon owns the path — refuse.
            if UnixStream::connect(path).is_ok() {
                return Err(AnonError::BindFailed {
                    addr,
                    message: "address in use by a live daemon".to_string(),
                });
            }
            std::fs::remove_file(path).map_err(bind_err)?;
            UnixListener::bind(path).map_err(bind_err)?
        }
        Err(e) => return Err(bind_err(e)),
    };
    listener.set_nonblocking(true).map_err(bind_err)?;
    Ok((Listener::Unix(listener), addr))
}

#[cfg(not(unix))]
fn bind_unix(path: &std::path::Path) -> Result<(Listener, String), AnonError> {
    Err(AnonError::BindFailed {
        addr: format!("unix:{}", path.display()),
        message: "unix sockets are not supported on this platform".to_string(),
    })
}

struct DaemonShared {
    shutdown: AtomicBool,
    connections: AtomicU64,
    /// Connections currently being served — the gauge load-shedding
    /// compares against `max_connections`.
    live: AtomicU64,
    requests: AtomicU64,
    busy: AtomicU64,
    /// DESIGN §15 fault taxonomy, exported as `daemon.faults`.
    frames_rejected: AtomicU64,
    read_timeouts: AtomicU64,
    idle_closed: AtomicU64,
    connections_shed: AtomicU64,
    recoveries: AtomicU64,
    degraded_transitions: AtomicU64,
    /// Latest per-tenant stats snapshot, refreshed by each worker after
    /// every request — so `STATS` never has to rendezvous with (or wait
    /// behind) tenant queues.
    snapshots: Mutex<BTreeMap<String, Json>>,
}

impl DaemonShared {
    fn new() -> DaemonShared {
        DaemonShared {
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            live: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
            snapshots: Mutex::new(BTreeMap::new()),
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::term_requested()
    }

    fn stats_doc(&self) -> Json {
        let mut tenants = Json::obj();
        {
            let snaps = self
                .snapshots
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for (name, snap) in snaps.iter() {
                tenants.set(name, snap.clone());
            }
        }
        let faults = confanon_obs::serve_faults_json([
            self.frames_rejected.load(Ordering::SeqCst),
            self.read_timeouts.load(Ordering::SeqCst),
            self.idle_closed.load(Ordering::SeqCst),
            self.connections_shed.load(Ordering::SeqCst),
            self.recoveries.load(Ordering::SeqCst),
            self.degraded_transitions.load(Ordering::SeqCst),
        ]);
        let daemon = Json::obj()
            .with("connections", self.connections.load(Ordering::SeqCst))
            .with("live_connections", self.live.load(Ordering::SeqCst))
            .with("requests", self.requests.load(Ordering::SeqCst))
            .with("busy_rejections", self.busy.load(Ordering::SeqCst))
            .with("faults", faults)
            .with("draining", self.draining());
        confanon_obs::serve_metrics_doc(tenants, daemon)
    }

    fn publish_snapshot(&self, name: &str, snap: Json) {
        let mut snaps = self.snapshots.lock().unwrap_or_else(|e| e.into_inner());
        snaps.insert(name.to_string(), snap);
    }

    /// The `BUSY` payload with the backoff hint clients key off:
    /// `retry-after-ms=<N>; <why>`.
    fn busy_payload(&self, hint_ms: u64, why: &str) -> Vec<u8> {
        format!("retry-after-ms={hint_ms}; {why}").into_bytes()
    }
}

struct Job {
    req: Request,
    reply: mpsc::Sender<(Status, Vec<u8>)>,
}

/// A tenant's dispatch port: its queue sender plus the per-tenant
/// quota the connection handler enforces *before* a byte of payload
/// reaches the worker.
struct TenantPort {
    tx: SyncSender<Job>,
    max_request_bytes: usize,
}

/// One tenant's worker loop: owns the tenant exclusively, so request
/// handling needs no locks and a sibling tenant's failure cannot poison
/// this one's state. Between jobs it runs the DESIGN §15 self-healing
/// probe: every `probe_interval` of queue silence, a state-quarantined
/// tenant re-verifies its persisted state through the §13 load path and
/// a degraded tenant retries its suspended flush — both un-gate
/// themselves the moment the store heals, with no operator action.
/// (Leak quarantine is deliberately *not* probed: a tripped §6.1 gate
/// means output was withheld, and only an operator can declare that
/// incident closed.) Returns the drain-flush error, if any.
fn tenant_worker(
    tenant: &mut Tenant,
    rx: Receiver<Job>,
    shared: &DaemonShared,
    probe_interval: Duration,
) -> Option<AnonError> {
    let snap = tenant.stats_json();
    shared.publish_snapshot(&tenant.name, snap);
    loop {
        let job = match rx.recv_timeout(probe_interval) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if tenant.needs_recovery() && tenant.try_recover(&StdFs) {
                    shared.recoveries.fetch_add(1, Ordering::SeqCst);
                    shared.publish_snapshot(&tenant.name, tenant.stats_json());
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let was_degraded = matches!(tenant.health(), crate::tenant::TenantHealth::Degraded { .. });
        let (status, payload) = match job.req.verb {
            Verb::Anon => tenant.handle_anon(&job.req.name, &job.req.payload, &StdFs),
            Verb::Flush => match tenant.flush(&StdFs) {
                Ok(()) => (Status::Ok, b"flushed".to_vec()),
                Err(e) => (Status::Error, e.to_string().into_bytes()),
            },
            // The handler routes only tenant verbs here.
            _ => (Status::Error, b"internal: verb is not tenant-scoped".to_vec()),
        };
        let is_degraded = matches!(tenant.health(), crate::tenant::TenantHealth::Degraded { .. });
        if is_degraded && !was_degraded {
            shared.degraded_transitions.fetch_add(1, Ordering::SeqCst);
        }
        if was_degraded && !is_degraded {
            shared.recoveries.fetch_add(1, Ordering::SeqCst);
        }
        let snap = tenant.stats_json();
        shared.publish_snapshot(&tenant.name, snap);
        // The requester may have timed out and gone; that's its choice.
        let _ = job.reply.send((status, payload));
    }
    // All senders dropped: the daemon is draining. Flush the resident
    // state through the atomic-rename discipline, whatever the mode.
    let result = tenant.flush(&StdFs);
    let snap = tenant.stats_json();
    shared.publish_snapshot(&tenant.name, snap);
    result.err()
}

fn dispatch_request(
    req: Request,
    shared: &DaemonShared,
    dispatch: &BTreeMap<String, TenantPort>,
    timeout: Duration,
    busy_hint_ms: u64,
) -> (Status, Vec<u8>) {
    match req.verb {
        Verb::Ping => (Status::Ok, b"pong".to_vec()),
        Verb::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (Status::Bye, b"draining".to_vec())
        }
        Verb::Stats => (
            Status::Ok,
            shared.stats_doc().to_string_pretty().into_bytes(),
        ),
        Verb::Anon | Verb::Flush => {
            let Some(port) = dispatch.get(&req.tenant) else {
                let msg = format!("unknown tenant {:?}", req.tenant);
                return (Status::UnknownTenant, msg.into_bytes());
            };
            if req.payload.len() > port.max_request_bytes {
                shared.frames_rejected.fetch_add(1, Ordering::SeqCst);
                let msg = format!(
                    "quota-exceeded: payload {} bytes exceeds tenant quota {} bytes",
                    req.payload.len(),
                    port.max_request_bytes
                );
                return (Status::Error, msg.into_bytes());
            }
            let (rtx, rrx) = mpsc::channel();
            match port.tx.try_send(Job { req, reply: rtx }) {
                Err(TrySendError::Full(_)) => {
                    shared.busy.fetch_add(1, Ordering::SeqCst);
                    (
                        Status::Busy,
                        shared.busy_payload(busy_hint_ms, "tenant queue full; back off and retry"),
                    )
                }
                Err(TrySendError::Disconnected(_)) => {
                    (Status::Error, b"tenant worker is gone".to_vec())
                }
                Ok(()) => match rrx.recv_timeout(timeout) {
                    Ok(reply) => reply,
                    Err(_) => (
                        Status::Timeout,
                        b"deadline exceeded; safe to retry (mappings are sticky)".to_vec(),
                    ),
                },
            }
        }
    }
}

fn handle_conn(
    mut conn: Conn,
    shared: &DaemonShared,
    dispatch: &Arc<BTreeMap<String, TenantPort>>,
    cfg: &ServeConfig,
) {
    if conn.configure().is_err() {
        return;
    }
    let timeout = Duration::from_millis(cfg.request_timeout_ms);
    let idle_timeout = Duration::from_millis(cfg.idle_timeout_ms);
    let read_deadline = Duration::from_millis(cfg.read_deadline_ms);
    let mut reader = FrameReader::new();
    // Two clocks per connection (DESIGN §15): `last_progress` restarts
    // on every delivered byte and trips the idle timeout; `frame_start`
    // pins the first byte of an in-progress frame and trips the read
    // deadline — a dribbler that always makes *some* progress resets
    // the first clock but never the second.
    let mut last_progress = Instant::now();
    let mut frame_start: Option<Instant> = None;
    let mut seen = 0usize;
    loop {
        let ev = reader.poll(&mut conn);
        let buffered = reader.buffered();
        if buffered != seen {
            seen = buffered;
            last_progress = Instant::now();
        }
        if buffered > 0 && frame_start.is_none() {
            frame_start = Some(last_progress);
        }
        match ev {
            ReadEvent::Eof => return,
            ReadEvent::Idle => {
                if shared.draining() {
                    let _ = conn.write_all(&encode_response(
                        Status::Draining,
                        b"daemon draining; reconnect after restart",
                    ));
                    return;
                }
                if let Some(start) = frame_start {
                    if start.elapsed() >= read_deadline {
                        shared.read_timeouts.fetch_add(1, Ordering::SeqCst);
                        let msg = format!(
                            "read-deadline: frame incomplete after {} ms",
                            cfg.read_deadline_ms
                        );
                        let _ = conn.write_all(&encode_response(Status::Error, msg.as_bytes()));
                        return;
                    }
                }
                if last_progress.elapsed() >= idle_timeout {
                    shared.idle_closed.fetch_add(1, Ordering::SeqCst);
                    let msg = format!("idle-timeout: no bytes for {} ms", cfg.idle_timeout_ms);
                    let _ = conn.write_all(&encode_response(Status::Error, msg.as_bytes()));
                    return;
                }
            }
            ReadEvent::Malformed(m) => {
                shared.frames_rejected.fetch_add(1, Ordering::SeqCst);
                let _ = conn.write_all(&encode_response(Status::Error, m.to_string().as_bytes()));
                return;
            }
            ReadEvent::Request(req) => {
                frame_start = None;
                // In-flight and queued work finishes during a drain, but
                // a frame parsed after the flag is *new* work: reject it
                // (SHUTDOWN stays answerable so drains are idempotent).
                if shared.draining() && req.verb != Verb::Shutdown {
                    let _ = conn.write_all(&encode_response(
                        Status::Draining,
                        b"daemon draining; reconnect after restart",
                    ));
                    return;
                }
                shared.requests.fetch_add(1, Ordering::SeqCst);
                let verb = req.verb;
                let (status, payload) =
                    dispatch_request(req, shared, dispatch, timeout, cfg.busy_retry_hint_ms);
                if conn.write_all(&encode_response(status, &payload)).is_err() {
                    return;
                }
                let _ = conn.flush();
                // Queue wait and processing must not count against the
                // peer's idle budget.
                last_progress = Instant::now();
                if verb == Verb::Shutdown {
                    return;
                }
            }
        }
    }
}

/// Runs the daemon until a graceful drain completes. Binds, opens every
/// tenant (loading persisted state through the verification path),
/// serves with scoped threads, and on `SIGTERM`/`SHUTDOWN` drains:
/// in-flight requests finish, every tenant flushes atomically, and the
/// function returns the run summary (the caller exits 0). Errors are
/// startup refusals ([`AnonError::BindFailed`],
/// [`AnonError::ConfigInvalid`], [`AnonError::TenantStateRefused`]) or
/// a drain-flush I/O failure.
pub fn run_daemon(
    cfg: &ServeConfig,
    opts: &ServeOptions,
    config_path: &str,
) -> Result<ServeSummary, AnonError> {
    // Open tenants before binding: state refusals must win over bind
    // errors so `--require-clean-state` is testable without a port.
    let mut tenants = Vec::new();
    for spec in &cfg.tenants {
        let tenant = Tenant::open(spec, cfg.flush, &StdFs);
        if opts.require_clean_state {
            if let Some(reason) = tenant.state_defect() {
                return Err(AnonError::TenantStateRefused {
                    tenant: spec.name.clone(),
                    message: reason.to_string(),
                });
            }
        }
        tenants.push(tenant);
    }

    let (listener, advertised) = bind_endpoint(cfg, config_path)?;
    if let Some(pf) = &opts.port_file {
        let mut stats = DurabilityStats::default();
        write_atomic(&StdFs, pf, format!("{advertised}\n").as_bytes(), &mut stats)?;
    }
    signals::install_term_handler();
    eprintln!(
        "serve: listening on {advertised} with {} tenant(s) \
         (queue depth {}, timeout {} ms, flush {})",
        tenants.len(),
        cfg.queue_depth,
        cfg.request_timeout_ms,
        cfg.flush.name()
    );

    let shared = DaemonShared::new();
    let probe_interval = Duration::from_millis(cfg.recovery_probe_ms);
    let tenant_count = tenants.len();
    let flush_errors: Mutex<Vec<AnonError>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let mut senders = BTreeMap::new();
        // `tenants` was built from `cfg.tenants` in order, so the specs
        // zip back onto their tenants for the per-tenant knobs.
        for (mut tenant, spec) in tenants.into_iter().zip(&cfg.tenants) {
            let depth = spec.queue_depth.unwrap_or(cfg.queue_depth);
            let (tx, rx) = mpsc::sync_channel::<Job>(depth);
            senders.insert(
                tenant.name.clone(),
                TenantPort {
                    tx,
                    max_request_bytes: spec.max_request_bytes,
                },
            );
            let shared = &shared;
            let flush_errors = &flush_errors;
            scope.spawn(move || {
                if let Some(e) = tenant_worker(&mut tenant, rx, shared, probe_interval) {
                    let mut errs = flush_errors.lock().unwrap_or_else(|p| p.into_inner());
                    errs.push(e);
                }
            });
        }
        // Handlers hold Arc clones so the senders' lifetime is exactly
        // "main loop + live connections": when the accept loop drops its
        // Arc and the last draining handler exits, every tenant channel
        // disconnects and workers flush.
        let dispatch = Arc::new(senders);
        loop {
            if shared.draining() {
                break;
            }
            match listener.accept() {
                Ok(mut conn) => {
                    // Load-shed above the connection bound: one BUSY
                    // frame with the backoff hint, then close. Nothing
                    // was read, so the client can simply reconnect.
                    if shared.live.load(Ordering::SeqCst) >= cfg.max_connections as u64 {
                        shared.connections_shed.fetch_add(1, Ordering::SeqCst);
                        let _ = conn.configure();
                        let _ = conn.write_all(&encode_response(
                            Status::Busy,
                            &shared.busy_payload(
                                cfg.busy_retry_hint_ms,
                                "connection limit reached; back off and reconnect",
                            ),
                        ));
                        continue;
                    }
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    shared.live.fetch_add(1, Ordering::SeqCst);
                    let shared = &shared;
                    let dispatch = Arc::clone(&dispatch);
                    scope.spawn(move || {
                        handle_conn(conn, shared, &dispatch, cfg);
                        shared.live.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                // Transient accept failure (EMFILE and friends): don't
                // kill the daemon over one connection.
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
        eprintln!("serve: draining ({} tenant(s) to flush)", tenant_count);
        drop(dispatch);
    });

    #[cfg(unix)]
    if let Some(path) = &cfg.socket {
        let _ = std::fs::remove_file(path);
    }

    let mut errs = flush_errors.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = errs.drain(..).next() {
        return Err(e);
    }
    Ok(ServeSummary {
        connections: shared.connections.load(Ordering::SeqCst),
        requests: shared.requests.load(Ordering::SeqCst),
        busy_rejections: shared.busy.load(Ordering::SeqCst),
        tenants: tenant_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon_req(tenant: &str, name: &str, payload: &[u8]) -> Request {
        Request {
            verb: Verb::Anon,
            tenant: tenant.to_string(),
            name: name.to_string(),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn request_frames_round_trip() {
        let req = anon_req("alpha", "r1.cfg", b"hostname core1\n");
        let bytes = encode_request(&req);
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(bytes);
        match reader.poll(&mut cursor) {
            ReadEvent::Request(parsed) => assert_eq!(parsed, req),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn two_frames_in_one_read_both_parse() {
        let a = anon_req("alpha", "a.cfg", b"interface Ethernet0\n");
        let b = anon_req("beta", "b.cfg", b"");
        let mut bytes = encode_request(&a);
        bytes.extend_from_slice(&encode_request(&b));
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(bytes);
        let first = reader.poll(&mut cursor);
        let second = reader.poll(&mut cursor);
        match (first, second) {
            (ReadEvent::Request(x), ReadEvent::Request(y)) => {
                assert_eq!(x, a);
                assert_eq!(y, b);
            }
            other => panic!("expected two requests, got {other:?}"),
        }
    }

    #[test]
    fn split_delivery_is_reassembled() {
        let req = anon_req("alpha", "r1.cfg", b"router bgp 65001\n");
        let bytes = encode_request(&req);
        let mut reader = FrameReader::new();
        // Feed one byte at a time: every prefix is Idle, the final byte
        // completes the frame.
        let mut parsed = None;
        for i in 0..bytes.len() {
            let mut cursor = std::io::Cursor::new(&bytes[i..i + 1]);
            match reader.poll(&mut cursor) {
                ReadEvent::Request(r) => {
                    parsed = Some(r);
                    assert_eq!(i, bytes.len() - 1, "frame completed early");
                }
                ReadEvent::Idle => {}
                // Cursor returns Ok(0) once exhausted; a 1-byte slice
                // yields the byte first.
                other => panic!("unexpected event at byte {i}: {other:?}"),
            }
        }
        assert_eq!(parsed, Some(req));
    }

    #[test]
    fn malformed_headers_are_rejected_not_panicked() {
        let cases: &[&[u8]] = &[
            b"HTTP/1.1 GET / 0\n",
            b"CONFANON/1 ANON alpha r1.cfg notanumber\n",
            b"CONFANON/1 EXPLODE alpha r1.cfg 0\n",
            b"CONFANON/1 ANON - r1.cfg 0\n",
            b"CONFANON/1 ANON alpha - 0\n",
            b"CONFANON/1 FLUSH - - 0\n",
            b"CONFANON/1 ANON al/pha r1.cfg 0\n",
            b"CONFANON/1 ANON alpha r1.cfg 0 extra\n",
            b"CONFANON/1 ANON alpha r1.cfg 999999999999\n",
            b"\xff\xfe\n",
        ];
        for case in cases {
            let mut reader = FrameReader::new();
            let mut cursor = std::io::Cursor::new(case.to_vec());
            match reader.poll(&mut cursor) {
                ReadEvent::Malformed(_) => {}
                other => panic!("{case:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_header_without_newline_is_rejected() {
        let mut reader = FrameReader::new();
        let junk = vec![b'A'; MAX_HEADER + 10];
        let mut cursor = std::io::Cursor::new(junk);
        match reader.poll(&mut cursor) {
            ReadEvent::Malformed(m) => {
                assert_eq!(m, FrameDefect::HeaderOverflow);
                assert!(m.to_string().contains("header"));
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn frame_defects_classify_stably() {
        let cases: &[(&[u8], &str)] = &[
            (b"HTTP/1.1 GET / - 0\n", "bad-protocol"),
            (b"CONFANON/1 EXPLODE alpha r1.cfg 0\n", "unknown-verb"),
            (b"CONFANON/1 ANON al/pha r1.cfg 0\n", "bad-token"),
            (b"CONFANON/1 ANON - r1.cfg 0\n", "bad-token"),
            (b"CONFANON/1 ANON alpha r1.cfg notanumber\n", "bad-length"),
            (b"CONFANON/1 ANON alpha r1.cfg 999999999999\n", "oversized-payload"),
            (b"\xff\xfe\n", "non-utf8-header"),
            (b"CONFANON/1 ANON alpha r1.cfg 0 extra\n", "field-count"),
        ];
        for (bytes, class) in cases {
            let mut reader = FrameReader::new();
            let mut cursor = std::io::Cursor::new(bytes.to_vec());
            match reader.poll(&mut cursor) {
                ReadEvent::Malformed(m) => {
                    assert_eq!(m.class(), *class, "for {bytes:?}");
                    let rendered = m.to_string();
                    assert!(
                        rendered.starts_with(&format!("malformed-frame/{class}: ")),
                        "payload {rendered:?} must lead with the class slug"
                    );
                }
                other => panic!("{bytes:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn response_encoding_has_exact_shape() {
        let bytes = encode_response(Status::Busy, b"retry");
        assert_eq!(bytes, b"CONFANON/1 BUSY 5\nretry");
        assert!(Status::Busy.retriable());
        assert!(Status::Timeout.retriable());
        assert!(!Status::Ok.retriable());
        assert!(!Status::Error.retriable());
    }

    #[test]
    fn verb_and_status_tokens_round_trip() {
        for v in [Verb::Anon, Verb::Flush, Verb::Stats, Verb::Ping, Verb::Shutdown] {
            assert_eq!(Verb::parse(v.name()), Some(v));
        }
        for s in [
            Status::Ok,
            Status::Busy,
            Status::Quarantined,
            Status::TenantQuarantined,
            Status::Degraded,
            Status::UnknownTenant,
            Status::Timeout,
            Status::Error,
            Status::Draining,
            Status::Bye,
        ] {
            assert_eq!(Status::parse(s.name()), Some(s));
        }
        assert_eq!(Verb::parse("anon"), None);
        assert_eq!(Status::parse("ok"), None);
    }

    const GOOD_TOML: &str = r#"
# endpoint
listen = "127.0.0.1:0"
queue_depth = 4
request_timeout_ms = 2500
idle_timeout_ms = 9000
read_deadline_ms = 4000
max_connections = 32
recovery_probe_ms = 250
busy_retry_hint_ms = 40
flush = "drain"

[tenant.alpha]
secret = "alpha-secret"
state_dir = "/tmp/alpha-state"   # per-tenant store
max_request_bytes = 65536
queue_depth = 2

[tenant.beta]
secret = "beta-secret"
state_dir = "/tmp/beta-state"
disable_rule = "neighbor-remote-as"
"#;

    #[test]
    fn config_parses_the_documented_grammar() {
        let cfg = ServeConfig::parse("confanon.toml", GOOD_TOML).unwrap();
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.socket, None);
        assert_eq!(cfg.queue_depth, 4);
        assert_eq!(cfg.request_timeout_ms, 2500);
        assert_eq!(cfg.idle_timeout_ms, 9000);
        assert_eq!(cfg.read_deadline_ms, 4000);
        assert_eq!(cfg.max_connections, 32);
        assert_eq!(cfg.recovery_probe_ms, 250);
        assert_eq!(cfg.busy_retry_hint_ms, 40);
        assert_eq!(cfg.flush, FlushMode::Drain);
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].name, "alpha");
        assert_eq!(cfg.tenants[0].secret, b"alpha-secret");
        assert!(cfg.tenants[0].disabled_rules.is_empty());
        assert_eq!(cfg.tenants[0].max_request_bytes, 65536);
        assert_eq!(cfg.tenants[0].queue_depth, Some(2));
        assert_eq!(cfg.tenants[1].disabled_rules, vec!["neighbor-remote-as"]);
        assert_eq!(cfg.tenants[1].max_request_bytes, MAX_PAYLOAD);
        assert_eq!(cfg.tenants[1].queue_depth, None);
    }

    #[test]
    fn config_defaults_apply() {
        let cfg = ServeConfig::parse(
            "c",
            "[tenant.a]\nsecret = \"s\"\nstate_dir = \"d\"\n",
        )
        .unwrap();
        assert_eq!(cfg.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(cfg.request_timeout_ms, DEFAULT_REQUEST_TIMEOUT_MS);
        assert_eq!(cfg.idle_timeout_ms, DEFAULT_IDLE_TIMEOUT_MS);
        assert_eq!(cfg.read_deadline_ms, DEFAULT_READ_DEADLINE_MS);
        assert_eq!(cfg.max_connections, DEFAULT_MAX_CONNECTIONS);
        assert_eq!(cfg.recovery_probe_ms, DEFAULT_RECOVERY_PROBE_MS);
        assert_eq!(cfg.busy_retry_hint_ms, DEFAULT_BUSY_RETRY_HINT_MS);
        assert_eq!(cfg.flush, FlushMode::Request);
        assert_eq!(cfg.tenants[0].max_request_bytes, MAX_PAYLOAD);
        assert_eq!(cfg.tenants[0].queue_depth, None);
    }

    #[test]
    fn config_rejections_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("listen = \n", "line 1"),
            ("queue_depth = \"four\"\n[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\n", "integer"),
            ("queue_depth = 0\n[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\n", "between"),
            ("bogus = 1\n", "unknown top-level key"),
            ("[server]\n", "unknown section"),
            ("[tenant.a!]\n", "invalid tenant name"),
            ("[tenant.a]\nstate_dir = \"d\"\n", "missing `secret`"),
            ("[tenant.a]\nsecret = \"s\"\n", "missing `state_dir`"),
            ("[tenant.a]\nsecret = \"s\"\nstate_dir = \"d\"\nbogus = 1\n", "unknown tenant key"),
            (
                "[tenant.a]\nsecret = \"s\"\nstate_dir = \"d\"\ndisable_rule = \"no-such\"\n",
                "unknown rule",
            ),
            ("not a pair\n", "expected `key = value`"),
            ("flush = \"sometimes\"\n", "must be \"request\" or \"drain\""),
            ("", "no [tenant.NAME] sections"),
            ("idle_timeout_ms = 0\n", "`idle_timeout_ms` must be positive"),
            ("read_deadline_ms = 0\n", "`read_deadline_ms` must be positive"),
            ("recovery_probe_ms = 0\n", "`recovery_probe_ms` must be positive"),
            ("busy_retry_hint_ms = 0\n", "`busy_retry_hint_ms` must be positive"),
            ("max_connections = 0\n", "`max_connections` must be between"),
            ("max_connections = 5000\n", "`max_connections` must be between"),
            (
                "[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\nmax_request_bytes = 0\n",
                "`max_request_bytes` must be between",
            ),
            (
                "[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\nmax_request_bytes = 999999999999\n",
                "`max_request_bytes` must be between",
            ),
            (
                "[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\nqueue_depth = 0\n",
                "`queue_depth` must be between",
            ),
        ];
        for (text, needle) in cases {
            let err = ServeConfig::parse("confanon.toml", text).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "{text:?}: expected {needle:?} in {msg:?}"
            );
            assert!(msg.contains("confanon.toml"), "{msg:?} lacks the path");
        }
    }

    #[test]
    fn config_rejects_duplicate_tenants_and_shared_state_dirs() {
        let dup = "[tenant.a]\nsecret=\"s\"\nstate_dir=\"d1\"\n\
                   [tenant.a]\nsecret=\"s\"\nstate_dir=\"d2\"\n";
        assert!(ServeConfig::parse("c", dup)
            .unwrap_err()
            .to_string()
            .contains("duplicate tenant"));
        let shared = "[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\n\
                      [tenant.b]\nsecret=\"t\"\nstate_dir=\"d\"\n";
        assert!(ServeConfig::parse("c", shared)
            .unwrap_err()
            .to_string()
            .contains("share a state_dir"));
    }

    #[test]
    fn comments_only_strip_outside_quotes() {
        let cfg = ServeConfig::parse(
            "c",
            "[tenant.a]\nsecret = \"se#cret\" # trailing\nstate_dir = \"d\"\n",
        )
        .unwrap();
        assert_eq!(cfg.tenants[0].secret, b"se#cret");
    }

    #[test]
    fn endpoint_requires_exactly_one_of_listen_and_socket() {
        let none = ServeConfig::parse("c", "[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\n").unwrap();
        assert!(matches!(
            bind_endpoint(&none, "c"),
            Err(AnonError::ConfigInvalid { .. })
        ));
        let both_txt = "listen = \"127.0.0.1:0\"\nsocket = \"/tmp/x.sock\"\n\
                        [tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\n";
        let both = ServeConfig::parse("c", both_txt).unwrap();
        assert!(matches!(
            bind_endpoint(&both, "c"),
            Err(AnonError::ConfigInvalid { .. })
        ));
    }

    #[test]
    fn bind_failure_is_reported_as_bind_failed() {
        let txt = "listen = \"256.256.256.256:1\"\n[tenant.a]\nsecret=\"s\"\nstate_dir=\"d\"\n";
        let cfg = ServeConfig::parse("c", txt).unwrap();
        match bind_endpoint(&cfg, "c") {
            Err(AnonError::BindFailed { addr, .. }) => {
                assert_eq!(addr, "256.256.256.256:1");
            }
            Err(other) => panic!("expected BindFailed, got {other:?}"),
            Ok(_) => panic!("expected BindFailed, got a listener"),
        }
    }
}
