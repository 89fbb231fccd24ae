//! One tenant of the serve daemon: resident anonymizer state, its
//! persistent store, and the per-request robustness envelope.
//!
//! A tenant is exactly what a `confanon batch --state DIR` run is,
//! made resident: one owner secret, one [`AnonState`] directory, one
//! leak gate. The serve layer owns each tenant from a single worker
//! thread, so this type needs no interior locking — isolation between
//! tenants is structural (separate threads, separate state, separate
//! secrets), not a locking discipline.
//!
//! Request handling is clone-mutate-swap: the worker clones the
//! resident [`Anonymizer`], runs the request on the clone under
//! `catch_unwind`, and only swaps the clone in after the §6.1 leak gate
//! passes. A poisoned request therefore fails closed — the error frame
//! goes out, the resident state is still the pre-request state (the
//! "worker re-clone" from the batch pipeline, per request instead of
//! per file), and no other tenant is involved at all.
//!
//! Quarantine is two-tier and deliberate about what it flushes:
//!
//! * **leak quarantine** (a request tripped the gate): the tenant stops
//!   serving, but its state as of the *last clean request* is intact
//!   and still flushes on drain;
//! * **state quarantine** (the persisted store was unusable at open):
//!   the tenant refuses to serve *and to flush* — overwriting a torn
//!   `state.json` with a fresh empty one would destroy exactly the
//!   evidence an operator needs to repair the store.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use confanon_obs::{Clock, ObsShard};
use confanon_testkit::json::Json;

use crate::anonymizer::{Anonymizer, AnonymizerConfig};
use crate::error::{panic_message, AnonError};
use crate::fsx::{DurabilityStats, Fs};
use crate::input::sanitize_bytes;
use crate::leak::{leak_report_json, LeakScanner};
use crate::manifest::RunManifest;
use crate::rules::RuleId;
use crate::serve::Status;
use crate::state::{watermark, AnonState, FileMark, WarmStart};

/// When a tenant's state is durably flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// After every successful request, *before* the `OK` frame is sent:
    /// an acknowledged mapping is a durable mapping, so `kill -9`
    /// loses nothing a client saw succeed.
    Request,
    /// Only at drain (and explicit `FLUSH` frames): faster, but a hard
    /// kill loses mappings issued since the last flush — clients must
    /// replay the whole session to reconverge.
    Drain,
}

impl FlushMode {
    /// Stable name, used in config files and log lines.
    pub fn name(self) -> &'static str {
        match self {
            FlushMode::Request => "request",
            FlushMode::Drain => "drain",
        }
    }

    /// Parses [`FlushMode::name`].
    pub fn parse(s: &str) -> Option<FlushMode> {
        match s {
            "request" => Some(FlushMode::Request),
            "drain" => Some(FlushMode::Drain),
            _ => None,
        }
    }
}

/// One tenant's static configuration (from `confanon.toml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's wire name (token-restricted).
    pub name: String,
    /// The tenant's owner secret: keys every mapping.
    pub secret: Vec<u8>,
    /// The tenant's private `AnonState` directory.
    pub state_dir: PathBuf,
    /// Rule ablations (validated names), as in `batch --disable-rule`.
    pub disabled_rules: Vec<String>,
    /// Per-tenant request-payload quota in bytes (≤ the protocol's
    /// [`crate::serve::MAX_PAYLOAD`]); an oversized `ANON` is answered
    /// with an `ERROR` frame before it ever reaches the worker.
    pub max_request_bytes: usize,
    /// Per-tenant work-queue bound; `None` uses the daemon-wide
    /// `queue_depth`.
    pub queue_depth: Option<usize>,
}

/// Tenant serving health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantHealth {
    /// Serving normally.
    Serving,
    /// A request tripped the §6.1 gate; the tenant refuses further
    /// requests but its last-clean state still flushes.
    LeakQuarantined {
        /// What the gate found.
        reason: String,
    },
    /// The persisted state was unusable at open (torn, foreign secret,
    /// wrong version); the tenant refuses requests *and* flushes.
    StateQuarantined {
        /// The load/verification error.
        reason: String,
    },
    /// A permanent fs error (ENOSPC-class) broke durable flushing. The
    /// tenant keeps serving `ANON` from its resident mappings — marked
    /// with the distinct `DEGRADED` status frame — but flush is
    /// suspended until a recovery probe (or explicit `FLUSH`) lands a
    /// clean save.
    Degraded {
        /// The flush error that started the degradation.
        reason: String,
    },
}

impl TenantHealth {
    /// Stable name for stats frames.
    pub fn name(&self) -> &'static str {
        match self {
            TenantHealth::Serving => "serving",
            TenantHealth::LeakQuarantined { .. } => "leak-quarantined",
            TenantHealth::StateQuarantined { .. } => "state-quarantined",
            TenantHealth::Degraded { .. } => "degraded",
        }
    }
}

/// Deterministic fault hooks, read from the environment once at open —
/// the serve-mode siblings of `CONFANON_CRASH_AFTER`. Tests (and only
/// tests) set them; production requests never contain the markers.
#[derive(Debug, Clone, Default)]
struct FaultHooks {
    /// `CONFANON_SERVE_FAULT_MARKER`: a request whose sanitized text
    /// contains this substring panics inside the containment boundary.
    panic_marker: Option<String>,
    /// `CONFANON_SERVE_SLEEP_MARKER`: a request whose text contains
    /// this substring sleeps before processing (queue saturation and
    /// timeout tests).
    sleep_marker: Option<String>,
    /// `CONFANON_SERVE_SLEEP_MS`: how long the sleep marker sleeps.
    sleep_ms: u64,
}

impl FaultHooks {
    fn from_env() -> FaultHooks {
        FaultHooks {
            panic_marker: std::env::var("CONFANON_SERVE_FAULT_MARKER").ok(),
            sleep_marker: std::env::var("CONFANON_SERVE_SLEEP_MARKER").ok(),
            sleep_ms: std::env::var("CONFANON_SERVE_SLEEP_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(250),
        }
    }
}

/// A resident tenant: the serve daemon's unit of isolation.
pub struct Tenant {
    /// The tenant's wire name.
    pub name: String,
    /// The spec the tenant was opened from, kept so recovery probes can
    /// re-run the full §13 open path against a healed state directory.
    spec: TenantSpec,
    state_dir: PathBuf,
    fingerprint: String,
    anonymizer: Anonymizer,
    files: BTreeMap<String, FileMark>,
    health: TenantHealth,
    flush_mode: FlushMode,
    hooks: FaultHooks,
    obs: ObsShard,
    durability: DurabilityStats,
}

impl Tenant {
    /// Opens a tenant: builds its keyed config and loads any persisted
    /// state through the full verification path (owner check + journal
    /// replay + trie digest check). A defective state does not abort
    /// the daemon — the tenant opens [state-quarantined]
    /// (`TenantHealth::StateQuarantined`) with the verification error
    /// as its reason, and every other tenant is unaffected.
    ///
    /// [state-quarantined]: TenantHealth::StateQuarantined
    pub fn open(spec: &TenantSpec, flush_mode: FlushMode, fs: &dyn Fs) -> Tenant {
        let mut cfg = AnonymizerConfig::new(spec.secret.clone());
        for rule in &spec.disabled_rules {
            if let Some(rule) = RuleId::from_name(rule) {
                cfg = cfg.without_rule(rule);
            }
        }
        let mut anonymizer = Anonymizer::new(cfg.clone());
        let restored = WarmStart::load(fs, &spec.state_dir, &cfg, &BTreeMap::new()).and_then(
            |warm| match warm {
                Some(warm) => warm.restore_into(&mut anonymizer).map(|_| warm.state.files),
                None => Ok(BTreeMap::new()),
            },
        );
        let (files, health) = match restored {
            Ok(files) => (files, TenantHealth::Serving),
            Err(e) => {
                // A failed replay may have half-warmed the tries; a
                // quarantined tenant must hold no partial mappings.
                anonymizer = Anonymizer::new(cfg);
                let reason = e.to_string();
                (BTreeMap::new(), TenantHealth::StateQuarantined { reason })
            }
        };
        let mut obs = ObsShard::new(Clock::new());
        obs.count("serve.opened", 1);
        Tenant {
            name: spec.name.clone(),
            spec: spec.clone(),
            state_dir: spec.state_dir.clone(),
            fingerprint: RunManifest::fingerprint(&spec.secret),
            anonymizer,
            files,
            health,
            flush_mode,
            hooks: FaultHooks::from_env(),
            obs,
            durability: DurabilityStats::default(),
        }
    }

    /// The state defect that quarantined this tenant at open, if any
    /// (`--require-clean-state` turns this into a startup refusal).
    pub fn state_defect(&self) -> Option<&str> {
        match &self.health {
            TenantHealth::StateQuarantined { reason } => Some(reason),
            _ => None,
        }
    }

    /// Current health.
    pub fn health(&self) -> &TenantHealth {
        &self.health
    }

    /// Handles one `ANON` request. Returns the response status and
    /// payload; never panics outward and never leaves the resident
    /// state half-mutated (clone-mutate-swap).
    pub fn handle_anon(&mut self, name: &str, payload: &[u8], fs: &dyn Fs) -> (Status, Vec<u8>) {
        self.obs.count("serve.requests", 1);
        self.obs.record("serve.request_bytes", payload.len() as u64);
        match &self.health {
            TenantHealth::Serving | TenantHealth::Degraded { .. } => {}
            TenantHealth::LeakQuarantined { reason }
            | TenantHealth::StateQuarantined { reason } => {
                self.obs.count("serve.rejected_quarantined", 1);
                let msg = format!("tenant {:?} is {}: {reason}", self.name, self.health.name());
                return (Status::TenantQuarantined, msg.into_bytes());
            }
        }
        let (text, _tally) = sanitize_bytes(payload);
        if let Some(marker) = &self.hooks.sleep_marker {
            if text.contains(marker.as_str()) {
                std::thread::sleep(std::time::Duration::from_millis(self.hooks.sleep_ms));
            }
        }
        let before = *self.anonymizer.prefilter_stats();
        let clone = self.anonymizer.clone();
        let panic_marker = self.hooks.panic_marker.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let mut clone = clone;
            if let Some(marker) = &panic_marker {
                assert!(
                    !text.contains(marker.as_str()),
                    "serve fault marker {marker:?} hit"
                );
            }
            let out = clone.anonymize_config(&text);
            (clone, out, text)
        }));
        let (warmed, out, text) = match outcome {
            Ok(parts) => parts,
            Err(payload) => {
                // Fail closed: the clone (and whatever it half-did)
                // is gone; the resident state never saw the request.
                self.obs.count("serve.panics_contained", 1);
                let msg = format!("panic contained: {}", panic_message(payload.as_ref()));
                return (Status::Error, msg.into_bytes());
            }
        };
        let scan = LeakScanner::borrowing(warmed.leak_record(), warmed.emitted()).scan(&out.text);
        if !scan.is_clean() {
            self.obs.count("serve.leak_quarantines", 1);
            let reason = format!(
                "leak gate: {} residual hit(s) in request {name:?}; output withheld",
                scan.leaks.len()
            );
            self.health = TenantHealth::LeakQuarantined { reason };
            let doc = leak_report_json(0, [(name, &scan)], &[]);
            return (Status::Quarantined, doc.to_string_pretty().into_bytes());
        }
        // Gate passed: commit. The swap is the only mutation of the
        // resident state, and it is all-or-nothing by construction.
        let after = *warmed.prefilter_stats();
        self.files.insert(
            name.to_string(),
            FileMark {
                watermark: watermark(&text),
                stats: out.stats.clone(),
                prefilter_fast: after.fast_path_lines - before.fast_path_lines,
                prefilter_slow: after.slow_path_lines - before.slow_path_lines,
            },
        );
        self.anonymizer = warmed;
        // Degraded mode suspends the per-request flush entirely — the
        // disk already said no permanently; hammering it per request
        // would turn one bad device into a latency storm. Recovery
        // probes (and explicit FLUSH frames) retry instead.
        if self.flush_mode == FlushMode::Request
            && matches!(self.health, TenantHealth::Serving)
        {
            if let Err(e) = self.flush(fs) {
                // The mapping is resident but not durable. Serve the
                // bytes anyway — mappings stay sticky and deterministic
                // — but under the distinct DEGRADED status so the
                // client knows durability is suspended.
                self.obs.count("serve.flush_failures", 1);
                self.obs.count("serve.degraded_transitions", 1);
                self.health = TenantHealth::Degraded {
                    reason: format!(
                        "state flush failed: {e}; serving from resident \
                         mappings with flushing suspended"
                    ),
                };
            }
        }
        if matches!(self.health, TenantHealth::Degraded { .. }) {
            self.obs.count("serve.requests_degraded", 1);
            return (Status::Degraded, out.text.into_bytes());
        }
        self.obs.count("serve.requests_ok", 1);
        (Status::Ok, out.text.into_bytes())
    }

    /// Durably flushes the resident state through the atomic-rename
    /// discipline. A state-quarantined tenant flushes nothing — the
    /// defective store on disk is evidence, not something to overwrite.
    /// A degraded tenant that lands a clean save heals back to serving:
    /// every mapping issued while the disk was full is now durable.
    pub fn flush(&mut self, fs: &dyn Fs) -> Result<(), AnonError> {
        if matches!(self.health, TenantHealth::StateQuarantined { .. }) {
            return Ok(());
        }
        let state = AnonState::capture(
            &self.anonymizer,
            self.fingerprint.clone(),
            self.files.clone(),
        );
        state.save(fs, &self.state_dir, &mut self.durability)?;
        self.obs.count("serve.flushes", 1);
        if matches!(self.health, TenantHealth::Degraded { .. }) {
            self.obs.count("serve.recoveries", 1);
            self.health = TenantHealth::Serving;
        }
        Ok(())
    }

    /// Whether this tenant is in a health state recovery probes can
    /// heal: state quarantine (re-verify the store) or degradation
    /// (retry the suspended flush). Leak quarantine is deliberately
    /// excluded — a tripped §6.1 gate needs operator review, not a
    /// timer.
    pub fn needs_recovery(&self) -> bool {
        matches!(
            self.health,
            TenantHealth::StateQuarantined { .. } | TenantHealth::Degraded { .. }
        )
    }

    /// One recovery probe. For a state-quarantined tenant, re-runs the
    /// full §13 open path (load → owner check → journal replay) against
    /// the state directory; if the store verifies clean now — repaired
    /// or removed by an operator — the reloaded state replaces the
    /// empty quarantine state and the tenant serves again. For a
    /// degraded tenant, retries the suspended flush ([`Tenant::flush`]
    /// heals on success). Returns `true` if the tenant recovered.
    pub fn try_recover(&mut self, fs: &dyn Fs) -> bool {
        match &self.health {
            TenantHealth::StateQuarantined { .. } => {
                let fresh = Tenant::open(&self.spec, self.flush_mode, fs);
                if fresh.state_defect().is_some() {
                    return false;
                }
                // Adopt the verified reload wholesale; keep this
                // tenant's counters so the stats frame shows the
                // quarantine epoch and the recovery.
                self.anonymizer = fresh.anonymizer;
                self.files = fresh.files;
                self.fingerprint = fresh.fingerprint;
                self.health = TenantHealth::Serving;
                self.obs.count("serve.recoveries", 1);
                true
            }
            TenantHealth::Degraded { .. } => self.flush(fs).is_ok(),
            _ => false,
        }
    }

    /// The tenant's stats-frame entry: health, state size, and the
    /// per-tenant `serve.*` counters.
    pub fn stats_json(&self) -> Json {
        let (n4, n6) = self.anonymizer.trie_node_counts();
        let reason = match &self.health {
            TenantHealth::Serving => String::new(),
            TenantHealth::LeakQuarantined { reason }
            | TenantHealth::StateQuarantined { reason }
            | TenantHealth::Degraded { reason } => reason.clone(),
        };
        Json::obj()
            .with("health", self.health.name())
            .with("reason", reason.as_str())
            .with("identifiers_mapped", self.anonymizer.journal().len() as u64)
            .with("trie4_nodes", n4 as u64)
            .with("trie6_nodes", n6 as u64)
            .with("files_marked", self.files.len() as u64)
            .with("durability", self.durability.to_json())
            .with("counters", self.obs.counters_json("serve."))
    }

    /// Read access to the resident anonymizer (tests compare mapping
    /// state against solo batch runs).
    pub fn anonymizer(&self) -> &Anonymizer {
        &self.anonymizer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsx::StdFs;
    use crate::state::state_path;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("confanon-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mk tmpdir");
        d
    }

    fn spec(name: &str, dir: &Path) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            secret: format!("{name}-secret").into_bytes(),
            state_dir: dir.to_path_buf(),
            disabled_rules: Vec::new(),
            max_request_bytes: crate::serve::MAX_PAYLOAD,
            queue_depth: None,
        }
    }

    fn sample(i: usize) -> String {
        format!(
            "hostname r{i}\n\
             interface Ethernet0\n ip address 10.{i}.2.3 255.255.255.0\n\
             router bgp 70{i}\n neighbor 10.{i}.2.9 remote-as 1239\n"
        )
    }

    #[test]
    fn requests_warm_state_and_flush_persists_it() {
        let root = tmpdir("warm");
        let sdir = root.join("alpha-state");
        let mut tenant = Tenant::open(&spec("alpha", &sdir), FlushMode::Drain, &StdFs);
        let (status, payload) = tenant.handle_anon("r1.cfg", sample(1).as_bytes(), &StdFs);
        assert_eq!(status, Status::Ok);
        let text = String::from_utf8(payload).unwrap();
        assert!(!text.contains("10.1.2.3"));
        tenant.flush(&StdFs).unwrap();

        // Reopen from the flushed store: the mapping must be resident
        // again and a replay byte-identical (sticky mappings).
        let mut reopened = Tenant::open(&spec("alpha", &sdir), FlushMode::Drain, &StdFs);
        assert_eq!(*reopened.health(), TenantHealth::Serving);
        assert!(!reopened.anonymizer().journal().is_empty());
        let (status2, payload2) = reopened.handle_anon("r1.cfg", sample(1).as_bytes(), &StdFs);
        assert_eq!(status2, Status::Ok);
        assert_eq!(text, String::from_utf8(payload2).unwrap());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn state_saved_without_leak_highlighting_is_recorded_on_open() {
        // A store flushed with leak-highlighting off holds no address in
        // its record; a tenant opened on it with the rule on must still
        // record every journaled address, or its leak gate would pass a
        // plaintext one.
        let root = tmpdir("r28");
        let sdir = root.join("alpha-state");
        let mut quiet = spec("alpha", &sdir);
        quiet.disabled_rules = vec!["leak-highlighting".to_string()];
        let a_cfg = "hostname a\ninterface Ethernet0\n ip address 12.1.1.1 255.255.255.252\n";
        let mut session1 = Tenant::open(&quiet, FlushMode::Drain, &StdFs);
        assert_eq!(
            session1.handle_anon("a.cfg", a_cfg.as_bytes(), &StdFs).0,
            Status::Ok
        );
        assert!(session1.anonymizer().leak_record().ips.is_empty());
        session1.flush(&StdFs).unwrap();

        let reopened = Tenant::open(&spec("alpha", &sdir), FlushMode::Drain, &StdFs);
        assert_eq!(*reopened.health(), TenantHealth::Serving);
        assert!(
            reopened.anonymizer().leak_record().ips.contains("12.1.1.1"),
            "record {:?}",
            reopened.anonymizer().leak_record().ips
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_state_quarantines_without_flushing_over_it() {
        let root = tmpdir("torn");
        let sdir = root.join("torn-state");
        let mut stats = DurabilityStats::default();
        crate::fsx::write_atomic(
            &StdFs,
            &state_path(&sdir),
            b"{ this is not a state document",
            &mut stats,
        )
        .unwrap();
        let torn_bytes = std::fs::read(state_path(&sdir)).unwrap();

        let mut tenant = Tenant::open(&spec("alpha", &sdir), FlushMode::Request, &StdFs);
        let reason = tenant.state_defect().expect("tenant must be quarantined").to_string();
        assert!(reason.contains("state"), "reason {reason:?}");
        let (status, payload) = tenant.handle_anon("r1.cfg", sample(1).as_bytes(), &StdFs);
        assert_eq!(status, Status::TenantQuarantined);
        assert!(String::from_utf8(payload).unwrap().contains("state-quarantined"));

        // Neither the request (flush=request) nor an explicit flush may
        // overwrite the torn document: it is the operator's evidence.
        tenant.flush(&StdFs).unwrap();
        assert_eq!(std::fs::read(state_path(&sdir)).unwrap(), torn_bytes);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_secret_state_is_quarantined_distinctly() {
        let root = tmpdir("foreign");
        let sdir = root.join("shared-state");
        let mut owner = Tenant::open(&spec("alpha", &sdir), FlushMode::Drain, &StdFs);
        assert_eq!(
            owner.handle_anon("r1.cfg", sample(1).as_bytes(), &StdFs).0,
            Status::Ok
        );
        owner.flush(&StdFs).unwrap();

        let thief = Tenant::open(&spec("beta", &sdir), FlushMode::Drain, &StdFs);
        let reason = thief.state_defect().expect("foreign state must quarantine");
        assert!(reason.contains("fingerprint"), "reason {reason:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn leak_quarantine_is_sticky_but_still_flushes() {
        let root = tmpdir("leak");
        let sdir = root.join("leak-state");
        let mut tenant = Tenant::open(
            &TenantSpec {
                disabled_rules: vec!["neighbor-remote-as".to_string()],
                ..spec("alpha", &sdir)
            },
            FlushMode::Drain,
            &StdFs,
        );
        let (s1, _) = tenant.handle_anon("clean.cfg", sample(1).as_bytes(), &StdFs);
        assert_eq!(s1, Status::Ok);
        let mapped_before = tenant.anonymizer().journal().len();

        // The ci.sh planted-leak recipe: with the remote-as locator
        // disabled, the recorded ASN 701 survives emission.
        let leaky = "router bgp 701\n neighbor 10.0.0.2 remote-as 701\n";
        let (s2, payload) = tenant.handle_anon("leak.cfg", leaky.as_bytes(), &StdFs);
        assert_eq!(s2, Status::Quarantined);
        assert!(String::from_utf8(payload).unwrap().contains("confanon-leak-report-v1"));
        assert!(matches!(tenant.health(), TenantHealth::LeakQuarantined { .. }));

        // The quarantined request left no trace; later requests refuse.
        assert_eq!(tenant.anonymizer().journal().len(), mapped_before);
        let (s3, _) = tenant.handle_anon("next.cfg", sample(2).as_bytes(), &StdFs);
        assert_eq!(s3, Status::TenantQuarantined);

        // Drain still persists the last-clean state.
        tenant.flush(&StdFs).unwrap();
        let reopened = Tenant::open(&spec("alpha", &sdir), FlushMode::Drain, &StdFs);
        assert_eq!(reopened.anonymizer().journal().len(), mapped_before);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A quarantined request is answered with the documented
    /// `confanon-leak-report-v1` document, for that one file.
    #[test]
    fn quarantine_payload_is_the_documented_leak_report() {
        let root = tmpdir("leak-report");
        let mut tenant = Tenant::open(
            &TenantSpec {
                disabled_rules: vec!["neighbor-remote-as".to_string()],
                ..spec("alpha", &root.join("state"))
            },
            FlushMode::Drain,
            &StdFs,
        );
        let leaky = "router bgp 701\n neighbor 10.0.0.2 remote-as 701\n";
        let (status, payload) = tenant.handle_anon("leak.cfg", leaky.as_bytes(), &StdFs);
        assert_eq!(status, Status::Quarantined);
        let doc = Json::parse(std::str::from_utf8(&payload).unwrap()).expect("payload parses");
        let num = |key: &str| doc.get(key).and_then(Json::as_u64);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("confanon-leak-report-v1"));
        assert_eq!(num("clean_files"), Some(0));
        assert_eq!(num("quarantined_files"), Some(1));
        assert_eq!(num("panic_contained_files"), Some(0));
        assert_eq!(num("total_leaks"), Some(1));
        assert_eq!(doc.get("failures").and_then(Json::as_array).map(<[Json]>::len), Some(0));
        let files = doc.get("quarantined").and_then(Json::as_array).expect("quarantined");
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].get("name").and_then(Json::as_str), Some("leak.cfg"));
        let leaks = files[0].get("leaks").and_then(Json::as_array).expect("leaks");
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].get("line_no").and_then(Json::as_u64), Some(1));
        assert_eq!(leaks[0].get("token").and_then(Json::as_str), Some("701"));
        let line = leaks[0].get("line").and_then(Json::as_str).expect("line");
        assert!(line.ends_with(" remote-as 701"), "{line}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn enospc_degrades_serving_and_a_clean_flush_heals() {
        use confanon_testkit::faultfs::FaultFs;
        let root = tmpdir("degrade");
        let sdir = root.join("alpha-state");
        let fs = FaultFs::quiet(9);
        let mut tenant = Tenant::open(&spec("alpha", &sdir), FlushMode::Request, &fs);

        // Healthy request: flush lands, plain OK.
        let (s1, p1) = tenant.handle_anon("r1.cfg", sample(1).as_bytes(), &fs);
        assert_eq!(s1, Status::Ok);

        // Disk fills: the request is still served (same sticky mapping,
        // so byte-identical output) but under the DEGRADED status, and
        // the tenant transitions to degraded health.
        fs.set_enospc(true);
        let (s2, p2) = tenant.handle_anon("r1.cfg", sample(1).as_bytes(), &fs);
        assert_eq!(s2, Status::Degraded);
        assert_eq!(p1, p2, "degraded replies must stay byte-identical");
        assert!(matches!(tenant.health(), TenantHealth::Degraded { .. }));
        assert!(tenant.needs_recovery());

        // While degraded the per-request flush is suspended: new
        // mappings accumulate resident-only, still DEGRADED.
        let (s3, _) = tenant.handle_anon("r2.cfg", sample(2).as_bytes(), &fs);
        assert_eq!(s3, Status::Degraded);
        let mapped = tenant.anonymizer().journal().len();

        // A probe against the still-full disk fails and stays degraded.
        assert!(!tenant.try_recover(&fs));
        assert!(tenant.needs_recovery());

        // Device heals: the probe flushes everything and un-degrades.
        fs.set_enospc(false);
        assert!(tenant.try_recover(&fs));
        assert_eq!(*tenant.health(), TenantHealth::Serving);
        let (s4, _) = tenant.handle_anon("r3.cfg", sample(3).as_bytes(), &fs);
        assert_eq!(s4, Status::Ok);

        // Everything issued while degraded is durable: a reopen holds
        // at least the degraded-era mappings.
        let reopened = Tenant::open(&spec("alpha", &sdir), FlushMode::Request, &StdFs);
        assert_eq!(*reopened.health(), TenantHealth::Serving);
        assert!(reopened.anonymizer().journal().len() >= mapped);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn state_quarantine_recovers_once_the_store_heals() {
        let root = tmpdir("recover");
        let sdir = root.join("alpha-state");
        let mut stats = DurabilityStats::default();
        crate::fsx::write_atomic(
            &StdFs,
            &state_path(&sdir),
            b"{ torn beyond recognition",
            &mut stats,
        )
        .unwrap();
        let mut tenant = Tenant::open(&spec("alpha", &sdir), FlushMode::Request, &StdFs);
        assert!(tenant.state_defect().is_some());
        assert!(tenant.needs_recovery());

        // The store is still torn: the probe re-verifies and refuses.
        assert!(!tenant.try_recover(&StdFs));
        assert!(matches!(tenant.health(), TenantHealth::StateQuarantined { .. }));

        // Operator removes the torn document: the next probe reloads
        // clean (cold state) and the tenant serves again.
        std::fs::remove_file(state_path(&sdir)).unwrap();
        assert!(tenant.try_recover(&StdFs));
        assert_eq!(*tenant.health(), TenantHealth::Serving);
        let (s, _) = tenant.handle_anon("r1.cfg", sample(1).as_bytes(), &StdFs);
        assert_eq!(s, Status::Ok);

        // Leak quarantine is NOT auto-recovered.
        tenant.health = TenantHealth::LeakQuarantined {
            reason: "gate hit".to_string(),
        };
        assert!(!tenant.needs_recovery());
        assert!(!tenant.try_recover(&StdFs));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_json_has_stable_shape() {
        let root = tmpdir("stats");
        let mut tenant =
            Tenant::open(&spec("alpha", &root.join("s")), FlushMode::Drain, &StdFs);
        let _ = tenant.handle_anon("r1.cfg", sample(1).as_bytes(), &StdFs);
        let doc = tenant.stats_json();
        assert_eq!(doc.get("health").and_then(Json::as_str), Some("serving"));
        assert!(doc.get("identifiers_mapped").and_then(Json::as_u64).unwrap() > 0);
        let counters = doc.get("counters").expect("counters object");
        assert_eq!(
            counters.get("serve.requests_ok").and_then(Json::as_u64),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    confanon_testkit::props! {
        cases = 48;

        /// Satellite: the PR 6 all-or-nothing flush property, extended
        /// to the multi-tenant layout — a faulted flush during drain
        /// leaves every tenant with exactly one complete state document
        /// (the old one or the new one, never a torn mixture, no
        /// staging residue), independently per tenant.
        fn faulted_multi_tenant_drain_is_all_or_nothing(seed in 0u64..1_000_000) {
            use confanon_testkit::faultfs::FaultFs;
            let root = std::env::temp_dir().join(format!(
                "confanon-tenant-drain-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(&root).expect("mk tmpdir");
            let names = ["alpha", "beta", "gamma"];
            let dirs: Vec<PathBuf> = names.iter().map(|n| root.join(n)).collect();
            let mut tenants: Vec<Tenant> = names
                .iter()
                .zip(&dirs)
                .map(|(n, d)| Tenant::open(&spec(n, d), FlushMode::Drain, &StdFs))
                .collect();
            // Round 1: warm and flush cleanly; remember the documents.
            for (i, t) in tenants.iter_mut().enumerate() {
                let (s, _) = t.handle_anon("r1.cfg", sample(i + 1).as_bytes(), &StdFs);
                assert_eq!(s, Status::Ok);
                t.flush(&StdFs).expect("clean flush");
            }
            let old_docs: Vec<Vec<u8>> = dirs
                .iter()
                .map(|d| std::fs::read(state_path(d)).expect("old doc"))
                .collect();
            // Round 2: more requests, then the drain flush under faults.
            for (i, t) in tenants.iter_mut().enumerate() {
                let (s, _) = t.handle_anon("r2.cfg", sample(i + 10).as_bytes(), &StdFs);
                assert_eq!(s, Status::Ok);
            }
            let faulty = FaultFs::new(seed);
            for t in tenants.iter_mut() {
                let _ = t.flush(&faulty); // may fail: that's the point
            }
            for (i, dir) in dirs.iter().enumerate() {
                let on_disk = std::fs::read(state_path(dir)).expect("state present");
                let loaded = AnonState::load(&StdFs, dir)
                    .expect("state must stay loadable after a faulted flush")
                    .expect("state must exist");
                // Exactly one complete document: round 1 (old) or
                // round 2 (new) — file-mark count tells them apart.
                if on_disk == old_docs[i] {
                    assert_eq!(loaded.files.len(), 1, "seed {seed}: old doc is round 1");
                } else {
                    assert_eq!(
                        loaded.files.len(),
                        2,
                        "seed {seed}: tenant {} holds a torn mixture",
                        names[i]
                    );
                }
                let residue: Vec<String> = std::fs::read_dir(dir)
                    .expect("read dir")
                    .flatten()
                    .map(|e| e.file_name().to_string_lossy().to_string())
                    .filter(|n| n.ends_with(crate::fsx::TMP_SUFFIX))
                    .collect();
                assert!(residue.is_empty(), "seed {seed}: staging residue {residue:?}");
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
