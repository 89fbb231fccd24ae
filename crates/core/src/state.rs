//! Persistent anonymizer state: `confanon-state-v1`.
//!
//! The paper's consistency guarantee (§3.2: "all identifiers must be
//! anonymized in a consistent manner") is process-local until the
//! mapping state survives the process. This module serializes the full
//! anonymizer state into one versioned, atomically-written document so
//! `confanon batch --state DIR` can anonymize a *growing* corpus across
//! runs with every previously-issued mapping provably stable.
//!
//! ## What is stored, and why it is sufficient
//!
//! The only order-dependent mapping state is the pair of
//! prefix-preserving tries, and a trie is a pure function of the
//! sequence of *first insertions* (mappings are sticky: re-mapping
//! mutates nothing — pinned by the `ipanon` suite). So instead of
//! serializing trie nodes, the state stores the **identifier journal**:
//! every distinct mapped address in first-mapped order
//! ([`crate::Anonymizer::journal`]). Loading replays the journal
//! through a fresh anonymizer keyed by the same secret, which rebuilds
//! the tries node-for-node — including the creation-time collision
//! repairs and trailing-zero decisions, because those are functions of
//! the same insertion sequence. A structure digest of each trie
//! ([`confanon_ipanon::IpAnonymizer::structure_digest`]) is stored and
//! re-checked after replay, so a corrupted or reordered journal is
//! refused rather than silently forking the mapping history.
//!
//! Everything else is stored directly: the leak record, the
//! emitted-image exclusion set, and a per-file map of `{watermark,
//! stats, prefilter counts}` used by warm runs to skip unchanged files
//! while still reporting cold-identical deterministic metrics. The
//! keyed permutations (ASN, community) and token hashes are stateless
//! functions of the owner secret and need no table — the state stores
//! only their parameter check values, so a load under the wrong secret
//! or changed parameters is refused.
//!
//! Loading replays the journal into the tries and the journal only,
//! and adopts the stored record and emitted set as they are. That is
//! sound because the bookkeeping is per identifier: an address gets its
//! original in the record (under leak-highlighting, R28) and its image
//! in the emitted set exactly when it enters the journal, so a captured
//! document's record addresses are a subset of its journal formatted
//! and its emitted set holds every journaled image. A state saved with
//! R28 off and loaded with it on lacks the addresses; since a journaled
//! address is never recorded again, restore then formats the journal
//! into the record (a record with as many addresses as the journal has
//! entries already holds them all).
//!
//! ## Schema
//!
//! ```json
//! {
//!   "schema": "confanon-state-v1",
//!   "secret_fingerprint": "<domain-separated hex sha1 of the secret>",
//!   "perm_params": "<hex check values of the keyed permutations>",
//!   "trie4_nodes": 123, "trie6_nodes": 45,
//!   "trie4_digest": "<hex16>", "trie6_digest": "<hex16>",
//!   "journal": ["4:0a000001", "6:20010db8…"],
//!   "record": {"asns": [...], "ips": [...], "words": [...]},
//!   "emitted": ["..."],
//!   "files": {"r1.cfg": {"watermark": "<hex sha1 of sanitized text>",
//!                        "prefilter_fast": 10, "prefilter_slow": 2,
//!                        "stats": { ... }}}
//! }
//! ```
//!
//! Journal entries and trie digests are hex *strings* (the in-tree JSON
//! value carries numbers as `f64`, which cannot hold a `u128` address
//! or a 64-bit digest exactly). The document is written pretty-printed
//! with a trailing newline via [`crate::fsx::write_atomic`], so a torn
//! state write can never be observed: the old state (or no state)
//! stays intact.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use confanon_netprim::{Ip, Ip6};
use confanon_testkit::json::{Json, JsonWriter};

use crate::anonymizer::{Anonymizer, AnonymizerConfig};
use crate::batch::FileDiscovery;
use crate::discover::ObservedIp;
use crate::error::{AnonError, StateErrorKind};
use crate::fsx::{write_atomic, DurabilityStats, Fs};
use crate::leak::LeakRecord;
use crate::manifest::RunManifest;
use crate::stats::AnonymizationStats;

/// Schema tag of the state document.
pub const STATE_SCHEMA: &str = "confanon-state-v1";

/// File name of the state document inside `--state DIR`.
pub const STATE_FILE_NAME: &str = "state.json";

/// Per-file skip record: the watermark identifying the file's content
/// and the deterministic per-file discovery outputs a warm run reuses
/// when the watermark still matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMark {
    /// The file's content [`watermark`].
    pub watermark: String,
    /// The file's discovery-pass statistics.
    pub stats: AnonymizationStats,
    /// Prefilter fast-path line count for this file (a pure function of
    /// the line texts, so stored counts sum exactly like a rescan).
    pub prefilter_fast: u64,
    /// Prefilter slow-path line count for this file.
    pub prefilter_slow: u64,
}

/// The full persisted anonymizer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnonState {
    /// Binds the state to one owner secret (same domain-separated
    /// fingerprint `run_manifest.json` records).
    pub secret_fingerprint: String,
    /// Check values of the keyed permutations (see
    /// [`Anonymizer::perm_fingerprint`]).
    pub perm_params: String,
    /// Distinct mapped addresses in first-mapped order.
    pub journal: Vec<ObservedIp>,
    /// The accumulated leak record.
    pub record: LeakRecord,
    /// The accumulated emitted-image exclusion set.
    pub emitted: BTreeSet<String>,
    /// v4 trie node count at save time (replay must reproduce it).
    pub trie4_nodes: u64,
    /// v6 trie node count at save time.
    pub trie6_nodes: u64,
    /// v4 trie structure digest at save time.
    pub trie4_digest: u64,
    /// v6 trie structure digest at save time.
    pub trie6_digest: u64,
    /// Per-file skip records, keyed by corpus-relative name.
    pub files: BTreeMap<String, FileMark>,
}

/// The state file path inside a state directory.
pub fn state_path(dir: &Path) -> PathBuf {
    dir.join(STATE_FILE_NAME)
}

/// A file's content watermark: the hex SHA-1 of its *sanitized* text
/// (what the pipeline actually anonymizes), so an edit anywhere
/// re-processes the file.
pub fn watermark(text: &str) -> String {
    RunManifest::digest_hex(text.as_bytes())
}

/// The skip records a run leaves for its next warm start: every file
/// whose discovery completed and that has a watermark, with what its
/// discovery contributed.
pub fn file_marks(
    discoveries: &BTreeMap<String, FileDiscovery>,
    watermarks: &BTreeMap<String, String>,
) -> BTreeMap<String, FileMark> {
    discoveries
        .iter()
        .filter_map(|(name, d)| {
            let mark = FileMark {
                watermark: watermarks.get(name)?.clone(),
                stats: d.stats.clone(),
                prefilter_fast: d.prefilter_fast,
                prefilter_slow: d.prefilter_slow,
            };
            Some((name.clone(), mark))
        })
        .collect()
}

/// A verified state to warm-start from: the one warm-start policy that
/// `batch --state DIR` and a serve tenant's open share. The state is
/// loaded and owner-checked before any work, and every file whose
/// stored watermark still matches yields its stored discovery, so a
/// warm run absorbs it instead of scanning the file again.
pub struct WarmStart {
    /// Where the state was loaded from, for error messages.
    pub path: String,
    /// The loaded, owner-checked state.
    pub state: AnonState,
    /// Watermark-matched files and their stored discovery contributions.
    pub prewarmed: BTreeMap<String, FileDiscovery>,
}

impl WarmStart {
    /// Loads the state in `dir` and refuses it unless it belongs to
    /// `cfg`'s owner: a wrong secret (or changed permutation parameters)
    /// must refuse before any work, not fork the mapping history.
    /// Absence is `Ok(None)`, a cold start. `watermarks` holds the
    /// current corpus's watermarks by name; a tenant, which has no
    /// corpus, passes none.
    pub fn load(
        fs: &dyn Fs,
        dir: &Path,
        cfg: &AnonymizerConfig,
        watermarks: &BTreeMap<String, String>,
    ) -> Result<Option<WarmStart>, AnonError> {
        let Some(state) = AnonState::load(fs, dir)? else {
            return Ok(None);
        };
        let path = state_path(dir).display().to_string();
        let perms = Anonymizer::new(cfg.clone()).perm_fingerprint();
        state.check_owner(&path, &RunManifest::fingerprint(&cfg.owner_secret), &perms)?;
        let prewarmed = state
            .files
            .iter()
            .filter(|(name, mark)| watermarks.get(*name) == Some(&mark.watermark))
            .map(|(name, mark)| {
                let d = FileDiscovery {
                    stats: mark.stats.clone(),
                    prefilter_fast: mark.prefilter_fast,
                    prefilter_slow: mark.prefilter_slow,
                };
                (name.clone(), d)
            })
            .collect();
        Ok(Some(WarmStart {
            path,
            state,
            prewarmed,
        }))
    }

    /// Replays the state into a fresh `anonymizer` (see
    /// [`AnonState::restore_into`]).
    pub fn restore_into(&self, anonymizer: &mut Anonymizer) -> Result<(u64, u64), AnonError> {
        self.state.restore_into(&self.path, anonymizer)
    }
}

fn corrupted(path: &str, message: String) -> AnonError {
    AnonError::StateInvalid {
        path: path.to_string(),
        kind: StateErrorKind::Corrupted,
        message,
    }
}

fn journal_entry_to_string(obs: &ObservedIp) -> String {
    match obs {
        ObservedIp::V4(ip) => format!("4:{:08x}", ip.0),
        ObservedIp::V6(ip) => format!("6:{:032x}", ip.0),
    }
}

fn journal_entry_from_str(s: &str) -> Result<ObservedIp, String> {
    if let Some(hex) = s.strip_prefix("4:") {
        if hex.len() != 8 {
            return Err(format!("journal entry {s:?}: bad v4 length"));
        }
        let bits = u32::from_str_radix(hex, 16)
            .map_err(|e| format!("journal entry {s:?}: {e}"))?;
        return Ok(ObservedIp::V4(Ip(bits)));
    }
    if let Some(hex) = s.strip_prefix("6:") {
        if hex.len() != 32 {
            return Err(format!("journal entry {s:?}: bad v6 length"));
        }
        let bits = u128::from_str_radix(hex, 16)
            .map_err(|e| format!("journal entry {s:?}: {e}"))?;
        return Ok(ObservedIp::V6(Ip6(bits)));
    }
    Err(format!("journal entry {s:?}: unknown address family"))
}

fn hex16_from_str(key: &str, s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("{key:?}: {e}"))
}

impl AnonState {
    /// Captures the current anonymizer state plus the per-file skip map
    /// the caller assembled for the corpus just processed.
    pub fn capture(
        anonymizer: &Anonymizer,
        secret_fingerprint: String,
        files: BTreeMap<String, FileMark>,
    ) -> AnonState {
        let (n4, n6) = anonymizer.trie_node_counts();
        let (d4, d6) = anonymizer.trie_digests();
        AnonState {
            secret_fingerprint,
            perm_params: anonymizer.perm_fingerprint(),
            journal: anonymizer.journal().to_vec(),
            record: anonymizer.leak_record().clone(),
            emitted: anonymizer.emitted().clone(),
            trie4_nodes: n4 as u64,
            trie6_nodes: n6 as u64,
            trie4_digest: d4,
            trie6_digest: d6,
            files,
        }
    }

    /// The serialized document: pretty JSON plus a trailing newline,
    /// streamed from the state's own fields with no [`Json`] tree in
    /// between.
    pub fn to_bytes(&self) -> Vec<u8> {
        // About one short indented line per set entry and a stats block
        // per file: the buffer is sized once instead of doubling.
        let entries = self.journal.len() + self.record.len() + self.emitted.len();
        let mut text = String::with_capacity(24 * entries + 1024 * (self.files.len() + 1));
        let mut w = JsonWriter::pretty(&mut text);
        let strings = |w: &mut JsonWriter, set: &BTreeSet<String>| {
            w.begin_array();
            for s in set {
                w.string(s);
            }
            w.end_array();
        };
        w.begin_object();
        w.key("schema").string(STATE_SCHEMA);
        w.key("secret_fingerprint").string(&self.secret_fingerprint);
        w.key("perm_params").string(&self.perm_params);
        w.key("trie4_nodes").number(self.trie4_nodes as f64);
        w.key("trie6_nodes").number(self.trie6_nodes as f64);
        w.key("trie4_digest").string(&format!("{:016x}", self.trie4_digest));
        w.key("trie6_digest").string(&format!("{:016x}", self.trie6_digest));
        w.key("journal").begin_array();
        for obs in &self.journal {
            w.string(&journal_entry_to_string(obs));
        }
        w.end_array();
        w.key("record").begin_object();
        for (key, set) in [
            ("asns", &self.record.asns),
            ("ips", &self.record.ips),
            ("words", &self.record.words),
        ] {
            strings(w.key(key), set);
        }
        w.end_object();
        strings(w.key("emitted"), &self.emitted);
        w.key("files").begin_object();
        for (name, mark) in &self.files {
            w.key(name).begin_object();
            w.key("watermark").string(&mark.watermark);
            w.key("prefilter_fast").number(mark.prefilter_fast as f64);
            w.key("prefilter_slow").number(mark.prefilter_slow as f64);
            w.key("stats").value(&mark.stats.to_json());
            w.end_object();
        }
        w.end_object();
        w.end_object();
        text.push('\n');
        text.into_bytes()
    }

    /// Parses a state document. `path` is used for error messages only.
    ///
    /// Validation order fixes which [`StateErrorKind`] wins: unparseable
    /// JSON is `Corrupted`; a parseable document with the wrong schema
    /// tag is `VersionMismatch`; structural defects after that are
    /// `Corrupted`. Secret/permutation binding is checked separately by
    /// [`AnonState::check_owner`] so the caller controls when the
    /// expected values are known.
    pub fn from_json_str(path: &str, text: &str) -> Result<AnonState, AnonError> {
        let mut doc =
            Json::parse(text).map_err(|e| corrupted(path, format!("not valid JSON: {e}")))?;
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(STATE_SCHEMA) {
            return Err(AnonError::StateInvalid {
                path: path.to_string(),
                kind: StateErrorKind::VersionMismatch,
                message: format!(
                    "schema {} (supported: {STATE_SCHEMA:?})",
                    schema.map_or("missing".to_string(), |s| format!("{s:?}"))
                ),
            });
        }
        let text_field = |key: &str| -> Result<String, AnonError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| corrupted(path, format!("{key:?} missing or not a string")))
        };
        let count_field = |key: &str| -> Result<u64, AnonError> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| corrupted(path, format!("{key:?} missing or not an integer")))
        };
        let secret_fingerprint = text_field("secret_fingerprint")?;
        let perm_params = text_field("perm_params")?;
        let trie4_nodes = count_field("trie4_nodes")?;
        let trie6_nodes = count_field("trie6_nodes")?;
        let trie4_digest = hex16_from_str("trie4_digest", &text_field("trie4_digest")?)
            .map_err(|m| corrupted(path, m))?;
        let trie6_digest = hex16_from_str("trie6_digest", &text_field("trie6_digest")?)
            .map_err(|m| corrupted(path, m))?;

        let journal = doc
            .get("journal")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupted(path, "\"journal\" missing or not an array".into()))?
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| "journal entries must be strings".to_string())
                    .and_then(journal_entry_from_str)
            })
            .collect::<Result<Vec<ObservedIp>, String>>()
            .map_err(|m| corrupted(path, m))?;

        // The record's and the emitted set's strings are moved out of
        // the parsed document, not copied.
        let record_doc = doc
            .take("record")
            .ok_or_else(|| corrupted(path, "\"record\" missing".into()))?;
        let record = LeakRecord::from_json(record_doc)
            .map_err(|m| corrupted(path, format!("\"record\": {m}")))?;

        let Some(Json::Arr(emitted)) = doc.take("emitted") else {
            return Err(corrupted(
                path,
                "\"emitted\" missing or not an array".into(),
            ));
        };
        let emitted = emitted
            .into_iter()
            .map(|item| match item {
                Json::Str(s) => Ok(s),
                _ => Err(corrupted(path, "\"emitted\" must hold strings".into())),
            })
            .collect::<Result<BTreeSet<String>, AnonError>>()?;

        let files_doc = doc
            .get("files")
            .ok_or_else(|| corrupted(path, "\"files\" missing".into()))?;
        let Json::Obj(members) = files_doc else {
            return Err(corrupted(path, "\"files\" must be an object".into()));
        };
        let mut files = BTreeMap::new();
        for (name, mark) in members {
            let watermark = mark
                .get("watermark")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupted(path, format!("files[{name:?}]: watermark missing")))?
                .to_string();
            let prefilter_fast = mark.get("prefilter_fast").and_then(Json::as_u64).ok_or_else(
                || corrupted(path, format!("files[{name:?}]: prefilter_fast missing")),
            )?;
            let prefilter_slow = mark.get("prefilter_slow").and_then(Json::as_u64).ok_or_else(
                || corrupted(path, format!("files[{name:?}]: prefilter_slow missing")),
            )?;
            let stats_doc = mark
                .get("stats")
                .ok_or_else(|| corrupted(path, format!("files[{name:?}]: stats missing")))?;
            let stats = AnonymizationStats::from_json(stats_doc)
                .map_err(|m| corrupted(path, format!("files[{name:?}]: {m}")))?;
            files.insert(
                name.clone(),
                FileMark {
                    watermark,
                    stats,
                    prefilter_fast,
                    prefilter_slow,
                },
            );
        }

        Ok(AnonState {
            secret_fingerprint,
            perm_params,
            journal,
            record,
            emitted,
            trie4_nodes,
            trie6_nodes,
            trie4_digest,
            trie6_digest,
            files,
        })
    }

    /// Verifies the state's owner binding: secret fingerprint and
    /// permutation parameters must both match the current run's.
    pub fn check_owner(
        &self,
        path: &str,
        secret_fingerprint: &str,
        perm_params: &str,
    ) -> Result<(), AnonError> {
        if self.secret_fingerprint != secret_fingerprint {
            return Err(AnonError::StateInvalid {
                path: path.to_string(),
                kind: StateErrorKind::FingerprintMismatch,
                message: "owner secret does not match the saved state \
                          (secret fingerprint mismatch)"
                    .to_string(),
            });
        }
        if self.perm_params != perm_params {
            return Err(AnonError::StateInvalid {
                path: path.to_string(),
                kind: StateErrorKind::FingerprintMismatch,
                message: "permutation parameters do not match the saved state".to_string(),
            });
        }
        Ok(())
    }

    /// Replays the journal into `anonymizer` (fresh, and keyed by the
    /// matching secret) to rebuild its tries and journal, verifies them
    /// against the stored node counts and structure digests, then adopts
    /// the stored record and emitted set as they are — except that a
    /// state saved with leak-highlighting off, loaded with it on, has
    /// its journal formatted into the record. Restoring into an
    /// anonymizer that has already recorded something unions the sets
    /// instead. Returns the restored (v4, v6) node counts on success.
    pub fn restore_into(
        &self,
        path: &str,
        anonymizer: &mut Anonymizer,
    ) -> Result<(u64, u64), AnonError> {
        anonymizer.replay_journal(&self.journal);
        let (n4, n6) = anonymizer.trie_node_counts();
        let (d4, d6) = anonymizer.trie_digests();
        if (n4 as u64, n6 as u64) != (self.trie4_nodes, self.trie6_nodes) {
            return Err(corrupted(
                path,
                format!(
                    "journal replay rebuilt {n4}/{n6} trie nodes, state claims {}/{}",
                    self.trie4_nodes, self.trie6_nodes
                ),
            ));
        }
        if (d4, d6) != (self.trie4_digest, self.trie6_digest) {
            return Err(corrupted(
                path,
                "journal replay rebuilt a different trie structure \
                 (digest mismatch)"
                    .to_string(),
            ));
        }
        anonymizer.adopt_recorded(&self.record, &self.emitted);
        Ok((n4 as u64, n6 as u64))
    }

    /// Loads the state document from `dir`, if present. Absence is
    /// `Ok(None)` (a cold start); presence with any defect is an error —
    /// silently starting cold over a damaged state would fork the
    /// mapping history.
    pub fn load(fs: &dyn Fs, dir: &Path) -> Result<Option<AnonState>, AnonError> {
        let path = state_path(dir);
        if !fs.exists(&path) {
            return Ok(None);
        }
        let bytes = fs.read(&path).map_err(|e| AnonError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let text = String::from_utf8_lossy(&bytes);
        Ok(Some(AnonState::from_json_str(
            &path.display().to_string(),
            &text,
        )?))
    }

    /// Durably writes the state document into `dir` via
    /// [`write_atomic`]: a torn write leaves the previous state intact.
    pub fn save(
        &self,
        fs: &dyn Fs,
        dir: &Path,
        stats: &mut DurabilityStats,
    ) -> Result<(), AnonError> {
        write_atomic(fs, &state_path(dir), &self.to_bytes(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymizer::AnonymizerConfig;
    use crate::manifest::RunManifest;

    impl AnonState {
        /// The reference for [`AnonState::to_bytes`]: the document as a
        /// [`Json`] tree, built from copies of the state's strings.
        fn to_json(&self) -> Json {
            let mut files = Json::obj();
            for (name, mark) in &self.files {
                files.set(
                    name,
                    Json::obj()
                        .with("watermark", mark.watermark.as_str())
                        .with("prefilter_fast", mark.prefilter_fast)
                        .with("prefilter_slow", mark.prefilter_slow)
                        .with("stats", mark.stats.to_json()),
                );
            }
            let set =
                |s: &BTreeSet<String>| Json::Arr(s.iter().map(|v| Json::Str(v.clone())).collect());
            let record = Json::obj()
                .with("asns", set(&self.record.asns))
                .with("ips", set(&self.record.ips))
                .with("words", set(&self.record.words));
            Json::obj()
                .with("schema", STATE_SCHEMA)
                .with("secret_fingerprint", self.secret_fingerprint.as_str())
                .with("perm_params", self.perm_params.as_str())
                .with("trie4_nodes", self.trie4_nodes)
                .with("trie6_nodes", self.trie6_nodes)
                .with("trie4_digest", format!("{:016x}", self.trie4_digest))
                .with("trie6_digest", format!("{:016x}", self.trie6_digest))
                .with(
                    "journal",
                    Json::Arr(
                        self.journal
                            .iter()
                            .map(|o| Json::Str(journal_entry_to_string(o)))
                            .collect(),
                    ),
                )
                .with("record", record)
                .with("emitted", set(&self.emitted))
                .with("files", files)
        }
    }

    fn warmed_anonymizer() -> Anonymizer {
        let mut a = Anonymizer::new(AnonymizerConfig::new(b"state-test-secret".to_vec()));
        a.anonymize_config(
            "hostname core1\n\
             interface Ethernet0\n ip address 10.1.2.3 255.255.255.0\n\
             router bgp 701\n neighbor 10.1.2.9 remote-as 1239\n\
             ipv6 route 2001:db8:7::/48 2001:db8::1\n",
        );
        a
    }

    fn capture(a: &Anonymizer) -> AnonState {
        let mut files = BTreeMap::new();
        files.insert(
            "r1.cfg".to_string(),
            FileMark {
                watermark: RunManifest::digest_hex(b"sanitized text"),
                stats: a.total_stats().clone(),
                prefilter_fast: 5,
                prefilter_slow: 1,
            },
        );
        AnonState::capture(a, RunManifest::fingerprint(b"state-test-secret"), files)
    }

    #[test]
    fn serialization_round_trips() {
        let a = warmed_anonymizer();
        let state = capture(&a);
        assert!(!state.journal.is_empty(), "corpus mapped no addresses?");
        let bytes = state.to_bytes();
        let back =
            AnonState::from_json_str("state.json", &String::from_utf8(bytes.clone()).unwrap())
                .expect("parse");
        assert_eq!(back, state);
        // Byte-stable: re-serializing the parse result is identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restore_rebuilds_the_tries_exactly() {
        let a = warmed_anonymizer();
        let state = capture(&a);
        let mut b = Anonymizer::new(AnonymizerConfig::new(b"state-test-secret".to_vec()));
        let (n4, n6) = state.restore_into("state.json", &mut b).expect("restore");
        assert_eq!((n4, n6), (state.trie4_nodes, state.trie6_nodes));
        assert_eq!(b.trie_digests(), a.trie_digests());
        assert_eq!(b.journal(), a.journal());
        assert_eq!(b.emitted_exclusions(), a.emitted_exclusions());
        // Previously mapped addresses keep their images; the anonymized
        // text of the same input is byte-identical.
        let mut a2 = warmed_anonymizer();
        let out_cold = a2.anonymize_config(" ip address 10.1.2.3 255.255.255.0\n");
        let out_warm = b.anonymize_config(" ip address 10.1.2.3 255.255.255.0\n");
        assert_eq!(out_cold.text, out_warm.text);
    }

    #[test]
    fn restore_refuses_a_tampered_journal() {
        let a = warmed_anonymizer();
        let mut state = capture(&a);
        // Reordering the journal changes the insertion sequence, which
        // (in general) changes the trie layout; the digest check or the
        // node-count check must catch any structural divergence.
        state.journal.reverse();
        let mut b = Anonymizer::new(AnonymizerConfig::new(b"state-test-secret".to_vec()));
        match state.restore_into("state.json", &mut b) {
            Ok(_) => {
                // A reversed journal *can* legally rebuild the same
                // structure for tiny inputs; then the state is simply
                // equivalent and restore is correct to accept it.
                assert_eq!(b.trie_digests(), (state.trie4_digest, state.trie6_digest));
            }
            Err(AnonError::StateInvalid { kind, .. }) => {
                assert_eq!(kind, StateErrorKind::Corrupted);
            }
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }

    #[test]
    fn version_and_owner_mismatches_are_distinct() {
        let a = warmed_anonymizer();
        let state = capture(&a);
        let text = String::from_utf8(state.to_bytes()).unwrap();

        // Version mismatch.
        let wrong = text.replace(STATE_SCHEMA, "confanon-state-v0");
        match AnonState::from_json_str("p", &wrong) {
            Err(AnonError::StateInvalid { kind, .. }) => {
                assert_eq!(kind, StateErrorKind::VersionMismatch)
            }
            other => panic!("{other:?}"),
        }

        // Truncation is corruption.
        match AnonState::from_json_str("p", &text[..text.len() / 2]) {
            Err(AnonError::StateInvalid { kind, .. }) => {
                assert_eq!(kind, StateErrorKind::Corrupted)
            }
            other => panic!("{other:?}"),
        }

        // Owner mismatch.
        let err = state
            .check_owner("p", &RunManifest::fingerprint(b"other-secret"), &a.perm_fingerprint())
            .unwrap_err();
        match err {
            AnonError::StateInvalid { kind, .. } => {
                assert_eq!(kind, StateErrorKind::FingerprintMismatch)
            }
            other => panic!("{other:?}"),
        }
        // Matching owner passes.
        state
            .check_owner(
                "p",
                &RunManifest::fingerprint(b"state-test-secret"),
                &a.perm_fingerprint(),
            )
            .expect("matching owner");
    }

    #[test]
    fn unknown_rule_in_file_stats_is_refused() {
        let text = String::from_utf8(capture(&warmed_anonymizer()).to_bytes()).unwrap();
        assert!(text.contains("\"split-alpha-runs\": "), "{text}");
        let renamed = text.replace("\"split-alpha-runs\": ", "\"no-such-rule\": ");
        match AnonState::from_json_str("p", &renamed) {
            Err(AnonError::StateInvalid { kind, message, .. }) => {
                assert_eq!(kind, StateErrorKind::Corrupted);
                assert!(message.contains("no-such-rule"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_absent_is_cold_start_and_save_round_trips() {
        use crate::fsx::StdFs;
        let dir = std::env::temp_dir().join(format!(
            "confanon-state-roundtrip-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        assert_eq!(AnonState::load(&StdFs, &dir).expect("load"), None);

        let a = warmed_anonymizer();
        let state = capture(&a);
        let mut stats = DurabilityStats::default();
        state.save(&StdFs, &dir, &mut stats).expect("save");
        assert_eq!(stats.atomic_writes, 1);
        let back = AnonState::load(&StdFs, &dir).expect("load").expect("present");
        assert_eq!(back, state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `texts` under names that need escaping or are not ASCII,
    /// captures the state, and checks the streamed document against the
    /// tree reference byte for byte and through a parse.
    fn assert_streams_like_the_tree(texts: Vec<String>) {
        use crate::batch::{BatchInput, BatchPipeline};
        const NAMES: [&str; 5] = ["net/r", "q\"uote", "back\\slash", "ctl\u{1}\u{1f}", "é中"];
        let inputs: Vec<BatchInput> = texts
            .into_iter()
            .enumerate()
            .map(|(i, text)| BatchInput {
                name: format!("{}{i:03}.cfg", NAMES[i % NAMES.len()]),
                text,
            })
            .collect();
        let mut p = BatchPipeline::new(AnonymizerConfig::new(b"stream-secret".to_vec()), 1);
        let report = p.run(&inputs);
        let marks = inputs
            .iter()
            .map(|f| (f.name.clone(), watermark(&f.text)))
            .collect();
        let state = AnonState::capture(
            p.anonymizer(),
            RunManifest::fingerprint(b"stream-secret"),
            file_marks(&report.discoveries, &marks),
        );
        assert!(!state.files.is_empty() && !state.journal.is_empty());
        let mut want = state.to_json().to_string_pretty();
        want.push('\n');
        assert_eq!(String::from_utf8(state.to_bytes()).expect("UTF-8"), want);
        let back = AnonState::from_json_str("state.json", &want).expect("parse");
        assert_eq!(back, state);
    }

    fn generated(seed: u64) -> Vec<String> {
        confanon_confgen::generate_dataset(&confanon_confgen::DatasetSpec {
            seed,
            networks: 1,
            mean_routers: 3,
            backbone_fraction: 0.5,
        })
        .networks
        .into_iter()
        .flat_map(|n| n.routers.into_iter().map(|r| r.config))
        .collect()
    }

    #[test]
    fn streamed_document_matches_the_tree_with_ipv6() {
        let a = warmed_anonymizer();
        let mut state = capture(&a);
        assert!(state.journal.iter().any(|o| matches!(o, ObservedIp::V6(_))));
        let mark = state.files["r1.cfg"].clone();
        for name in ["q\"uote.cfg", "back\\slash.cfg", "ctl\u{7}.cfg", "é中.cfg"] {
            state.files.insert(name.to_string(), mark.clone());
        }
        let mut want = state.to_json().to_string_pretty();
        want.push('\n');
        assert_eq!(String::from_utf8(state.to_bytes()).expect("UTF-8"), want);
        assert_eq!(AnonState::from_json_str("p", &want).expect("parse"), state);
    }

    confanon_testkit::props! {
        cases = 8;

        /// The streamed state document equals the tree reference on
        /// states captured from generated corpora.
        fn streamed_document_matches_the_tree_on_generated(seed in 0u64..1_000_000) {
            assert_streams_like_the_tree(generated(seed));
        }

        /// The same on chaos-mutated corpora, whose hostile bytes reach
        /// the recorded words.
        fn streamed_document_matches_the_tree_on_chaos(seed in 0u64..1_000_000) {
            let mut mutator = confanon_testkit::chaos::ChaosMutator::new(seed);
            let texts = generated(seed ^ 0xC4A0_5EED)
                .iter()
                .map(|t| crate::input::sanitize_bytes(&mutator.mutate(t.as_bytes()).bytes).0)
                .collect();
            assert_streams_like_the_tree(texts);
        }
    }

    confanon_testkit::props! {
        cases = 96;

        /// State publishing is all-or-nothing under injected faults: a
        /// torn overwrite leaves the previous state byte-intact and
        /// loadable, a successful one is complete, and no `*.fsx-tmp`
        /// staging file survives either way.
        fn faulted_state_save_keeps_the_old_state_intact(seed in 0u64..1_000_000) {
            use crate::fsx::StdFs;
            use confanon_testkit::faultfs::FaultFs;
            let dir = std::env::temp_dir().join(format!(
                "confanon-state-fault-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");

            // A good previous state on disk...
            let a = warmed_anonymizer();
            let old = capture(&a);
            let mut stats = DurabilityStats::default();
            old.save(&StdFs, &dir, &mut stats).expect("seed state");
            let old_bytes = std::fs::read(state_path(&dir)).expect("read old");

            // ...overwritten by a grown state through a faulty filesystem.
            let mut b = Anonymizer::new(AnonymizerConfig::new(b"state-test-secret".to_vec()));
            old.restore_into("state.json", &mut b).expect("restore");
            b.anonymize_config(" ip route 172.19.4.0 255.255.255.0 Null0\n");
            let new = AnonState::capture(
                &b,
                old.secret_fingerprint.clone(),
                old.files.clone(),
            );
            assert_ne!(new.to_bytes(), old_bytes, "grown state must differ");

            let fs = FaultFs::new(seed);
            match new.save(&fs, &dir, &mut stats) {
                Ok(()) => {
                    assert_eq!(
                        std::fs::read(state_path(&dir)).expect("read new"),
                        new.to_bytes(),
                        "seed {seed}: committed state must be the complete new document"
                    );
                }
                Err(_) => {
                    // A fault after the rename (e.g. on the directory
                    // sync) reports failure with the new document
                    // already in place; a fault before it leaves the old
                    // one. Either way the file is one *complete*
                    // document — never a torn mixture.
                    let on_disk = std::fs::read(state_path(&dir)).expect("read state");
                    assert!(
                        on_disk == old_bytes || on_disk == new.to_bytes(),
                        "seed {seed}: failed save left a torn state document"
                    );
                    let back = AnonState::load(&StdFs, &dir)
                        .expect("state still parses after a failed save")
                        .expect("present");
                    assert!(back == old || back == new);
                }
            }
            let residue: Vec<String> = std::fs::read_dir(&dir)
                .expect("read dir")
                .flatten()
                .map(|e| e.file_name().to_string_lossy().to_string())
                .filter(|n| n.ends_with(".fsx-tmp"))
                .collect();
            assert!(residue.is_empty(), "seed {seed}: staging residue {residue:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
