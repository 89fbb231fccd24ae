//! The durable run journal: `run_manifest.json`.
//!
//! A corpus run records its intent and progress in a manifest inside the
//! output directory, written through [`crate::fsx::write_atomic`] at
//! begin and once per commit group ([`crate::publish::Publisher::commit`]
//! — one group for a whole `confanon batch` run). The discipline is
//! write-ahead: a file's digest enters the journal *before* its bytes
//! are published, so at no observable point does the output directory
//! contain a file the journal cannot account for — the storage-layer
//! mirror of the leak gate's "nothing unaccounted is released".
//!
//! The manifest is what makes `--resume` sound. On restart the run
//! re-reads it, verifies every file claimed `released` against its
//! SHA-1 digest, demotes anything missing or mismatched back to
//! `pending`, and re-processes only those — with the guarantee (proved
//! by `tests/crash_resume.rs` across every crash point) that the final
//! released set is byte-identical to an uninterrupted run.
//!
//! Schema `confanon-run-manifest-v1`:
//!
//! ```json
//! {
//!   "schema": "confanon-run-manifest-v1",
//!   "secret_fingerprint": "<hex sha1, domain-separated, of the owner secret>",
//!   "files": [
//!     {"name": "net1/r1.cfg", "status": "released",
//!      "digest": "<hex sha1 of the released bytes>"},
//!     {"name": "net1/r2.cfg", "status": "pending"}
//!   ]
//! }
//! ```
//!
//! `status` ∈ `pending` | `released` | `quarantined` | `failed`;
//! `digest` is present exactly for `released` and `quarantined` entries.
//! The file order is the corpus order (which also fixes the shared
//! mapping state, §3.2), and the document contains no timestamps, so a
//! resumed run's final manifest is byte-identical to a one-shot run's.

use confanon_crypto::Sha1;
use confanon_testkit::json::Json;

use crate::error::AnonError;

/// Schema tag of the manifest document.
pub const RUN_MANIFEST_SCHEMA: &str = "confanon-run-manifest-v1";

/// File name of the journal inside the output directory.
pub const RUN_MANIFEST_NAME: &str = "run_manifest.json";

/// Domain separator for the secret fingerprint, so the manifest never
/// stores a digest an attacker could replay against token hashes.
const FINGERPRINT_DOMAIN: &[u8] = b"confanon-run-manifest-v1/secret-fingerprint\x00";

/// Lifecycle of one corpus file within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileStatus {
    /// Not yet (re-)processed in this run.
    Pending,
    /// Passed the leak gate; bytes published to the output directory.
    Released,
    /// Residual identifiers found; bytes diverted to quarantine.
    Quarantined,
    /// Panic-contained; no output exists for this file.
    Failed,
}

impl FileStatus {
    /// Stable lowercase name used in the JSON document.
    pub fn name(self) -> &'static str {
        match self {
            FileStatus::Pending => "pending",
            FileStatus::Released => "released",
            FileStatus::Quarantined => "quarantined",
            FileStatus::Failed => "failed",
        }
    }

    /// Parses the name produced by [`FileStatus::name`].
    pub fn parse(name: &str) -> Option<FileStatus> {
        match name {
            "pending" => Some(FileStatus::Pending),
            "released" => Some(FileStatus::Released),
            "quarantined" => Some(FileStatus::Quarantined),
            "failed" => Some(FileStatus::Failed),
            _ => None,
        }
    }
}

/// One corpus file's journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Corpus-relative name (also the key `--resume` matches on).
    pub name: String,
    /// Current lifecycle state.
    pub status: FileStatus,
    /// Hex SHA-1 of the published bytes (released/quarantined only).
    pub digest: Option<String>,
    /// True for NetCloak-style decoy inputs (`batch --decoys N`):
    /// synthetic chaff the owner injected to dilute structural
    /// fingerprints. The flag is the owner's provenance record — the
    /// released *bytes* carry no marker — so the owner can strip or
    /// account for decoys later while a recipient of the corpus alone
    /// cannot tell them apart. Serialized only when true, so runs
    /// without decoys produce byte-identical manifests to older
    /// versions.
    pub decoy: bool,
}

/// The run journal: secret fingerprint plus per-file state, in corpus
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Fingerprint binding the journal to one owner secret.
    pub secret_fingerprint: String,
    /// Per-file entries, in corpus order.
    pub files: Vec<FileEntry>,
}

impl RunManifest {
    /// A fresh journal: every file pending, bound to `secret`.
    pub fn new(secret: &[u8], names: &[String]) -> RunManifest {
        RunManifest {
            secret_fingerprint: Self::fingerprint(secret),
            files: names
                .iter()
                .map(|n| FileEntry {
                    name: n.clone(),
                    status: FileStatus::Pending,
                    digest: None,
                    decoy: false,
                })
                .collect(),
        }
    }

    /// The domain-separated fingerprint of an owner secret. One-way:
    /// comparing fingerprints tells resume "same secret or not" without
    /// the manifest ever holding material usable against token hashes.
    pub fn fingerprint(secret: &[u8]) -> String {
        let mut h = Sha1::new();
        h.update(FINGERPRINT_DOMAIN);
        h.update(secret);
        Sha1::to_hex(&h.finalize())
    }

    /// Hex SHA-1 of published bytes — the digest stored per file.
    pub fn digest_hex(bytes: &[u8]) -> String {
        Sha1::to_hex(&Sha1::digest(bytes))
    }

    /// Looks up a file's entry by name.
    pub fn entry(&self, name: &str) -> Option<&FileEntry> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Updates one file's state; returns false if the name is unknown
    /// (callers treat that as a corpus/manifest mismatch).
    pub fn set(&mut self, name: &str, status: FileStatus, digest: Option<String>) -> bool {
        match self.files.iter_mut().find(|f| f.name == name) {
            Some(e) => {
                e.status = status;
                e.digest = digest;
                true
            }
            None => false,
        }
    }

    /// Flags every entry named in `names` as a decoy. Returns false if
    /// any name is unknown (a corpus/manifest mismatch — callers treat
    /// it like [`RunManifest::set`] failing).
    pub fn mark_decoys(&mut self, names: &std::collections::BTreeSet<String>) -> bool {
        let mut remaining = names.len();
        for f in &mut self.files {
            if names.contains(&f.name) {
                f.decoy = true;
                remaining -= 1;
            }
        }
        remaining == 0
    }

    /// Names of the entries flagged as decoys, in corpus order.
    pub fn decoy_names(&self) -> Vec<String> {
        self.files
            .iter()
            .filter(|f| f.decoy)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Number of entries still pending.
    pub fn pending_count(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.status == FileStatus::Pending)
            .count()
    }

    /// The manifest as a JSON document.
    pub fn to_json(&self) -> Json {
        let files: Vec<Json> = self
            .files
            .iter()
            .map(|f| {
                let mut o = Json::obj()
                    .with("name", f.name.as_str())
                    .with("status", f.status.name());
                if let Some(d) = &f.digest {
                    o.set("digest", d.as_str());
                }
                if f.decoy {
                    o.set("decoy", true);
                }
                o
            })
            .collect();
        Json::obj()
            .with("schema", RUN_MANIFEST_SCHEMA)
            .with("secret_fingerprint", self.secret_fingerprint.as_str())
            .with("files", Json::Arr(files))
    }

    /// The exact bytes written to disk (pretty JSON plus newline).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s.into_bytes()
    }

    /// Parses a manifest document, validating the schema tag and every
    /// entry's status. Structural problems are [`AnonError::InvalidInput`]
    /// — a torn or foreign file must never silently resume as an empty
    /// run.
    pub fn from_json_str(text: &str) -> Result<RunManifest, AnonError> {
        let invalid = |message: String| AnonError::InvalidInput { message };
        let doc = Json::parse(text)
            .map_err(|e| invalid(format!("{RUN_MANIFEST_NAME}: not valid JSON: {e}")))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != RUN_MANIFEST_SCHEMA {
            return Err(invalid(format!(
                "{RUN_MANIFEST_NAME}: schema {schema:?}, expected {RUN_MANIFEST_SCHEMA:?}"
            )));
        }
        let secret_fingerprint = doc
            .get("secret_fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid(format!("{RUN_MANIFEST_NAME}: missing secret_fingerprint")))?
            .to_string();
        let files_json = doc
            .get("files")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid(format!("{RUN_MANIFEST_NAME}: missing files array")))?;
        let mut files = Vec::with_capacity(files_json.len());
        for f in files_json {
            let name = f
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| invalid(format!("{RUN_MANIFEST_NAME}: file entry without name")))?
                .to_string();
            let status_name = f.get("status").and_then(Json::as_str).unwrap_or("");
            let status = FileStatus::parse(status_name).ok_or_else(|| {
                invalid(format!(
                    "{RUN_MANIFEST_NAME}: {name}: unknown status {status_name:?}"
                ))
            })?;
            let digest = f.get("digest").and_then(Json::as_str).map(str::to_string);
            let decoy = f.get("decoy").and_then(Json::as_bool).unwrap_or(false);
            files.push(FileEntry {
                name,
                status,
                digest,
                decoy,
            });
        }
        Ok(RunManifest {
            secret_fingerprint,
            files,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn statuses_round_trip() {
        for s in [
            FileStatus::Pending,
            FileStatus::Released,
            FileStatus::Quarantined,
            FileStatus::Failed,
        ] {
            assert_eq!(FileStatus::parse(s.name()), Some(s));
        }
        assert_eq!(FileStatus::parse("torn"), None);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = RunManifest::new(b"secret", &names(&["a.cfg", "sub/b.cfg", "c.cfg"]));
        assert_eq!(m.pending_count(), 3);
        assert!(m.set(
            "a.cfg",
            FileStatus::Released,
            Some(RunManifest::digest_hex(b"bytes"))
        ));
        assert!(m.set("sub/b.cfg", FileStatus::Quarantined, Some("ab".into())));
        assert!(m.set("c.cfg", FileStatus::Failed, None));
        assert!(!m.set("nope.cfg", FileStatus::Released, None));
        assert_eq!(m.pending_count(), 0);

        let text = String::from_utf8(m.to_bytes()).expect("utf8");
        let back = RunManifest::from_json_str(&text).expect("parse");
        assert_eq!(back, m);
    }

    #[test]
    fn decoy_flags_round_trip_and_stay_off_the_wire_when_absent() {
        let mut m = RunManifest::new(b"secret", &names(&["a.cfg", "net/zz-decoy-0.cfg"]));
        let marked: std::collections::BTreeSet<String> =
            ["net/zz-decoy-0.cfg".to_string()].into();
        assert!(m.mark_decoys(&marked));
        assert_eq!(m.decoy_names(), vec!["net/zz-decoy-0.cfg".to_string()]);

        let text = String::from_utf8(m.to_bytes()).expect("utf8");
        assert!(text.contains("\"decoy\""), "flag serialized when set");
        let back = RunManifest::from_json_str(&text).expect("parse");
        assert_eq!(back, m);

        // Status updates preserve the provenance flag.
        assert!(m.set("net/zz-decoy-0.cfg", FileStatus::Released, Some("ab".into())));
        assert_eq!(m.decoy_names().len(), 1);

        // Unknown names fail, mirroring `set`.
        let unknown: std::collections::BTreeSet<String> = ["nope.cfg".to_string()].into();
        assert!(!m.mark_decoys(&unknown));
    }

    #[test]
    fn decoy_free_manifests_keep_the_v1_wire_format() {
        let m = RunManifest::new(b"s", &names(&["a", "b"]));
        let text = String::from_utf8(m.to_bytes()).expect("utf8");
        assert!(
            !text.contains("decoy"),
            "no-decoy runs must serialize byte-identically to older versions"
        );
        let back = RunManifest::from_json_str(&text).expect("parse");
        assert!(back.decoy_names().is_empty());
    }

    #[test]
    fn fingerprint_separates_secrets_and_is_stable() {
        let a = RunManifest::fingerprint(b"secret-a");
        assert_eq!(a, RunManifest::fingerprint(b"secret-a"));
        assert_ne!(a, RunManifest::fingerprint(b"secret-b"));
        // Domain separation: the fingerprint is not the bare digest.
        assert_ne!(a, Sha1::to_hex(&Sha1::digest(b"secret-a")));
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn digest_matches_plain_sha1() {
        assert_eq!(
            RunManifest::digest_hex(b"abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d",
            "RFC 3174 vector"
        );
    }

    #[test]
    fn parse_rejects_foreign_and_torn_documents() {
        assert!(RunManifest::from_json_str("{").is_err(), "torn JSON");
        assert!(
            RunManifest::from_json_str(r#"{"schema": "other", "secret_fingerprint": "x", "files": []}"#)
                .is_err(),
            "wrong schema"
        );
        assert!(
            RunManifest::from_json_str(
                r#"{"schema": "confanon-run-manifest-v1", "secret_fingerprint": "x",
                    "files": [{"name": "a", "status": "exploded"}]}"#
            )
            .is_err(),
            "unknown status"
        );
        assert!(
            RunManifest::from_json_str(
                r#"{"schema": "confanon-run-manifest-v1", "files": []}"#
            )
            .is_err(),
            "missing fingerprint"
        );
    }

    #[test]
    fn no_timestamps_means_deterministic_bytes() {
        let m1 = RunManifest::new(b"s", &names(&["a", "b"]));
        let m2 = RunManifest::new(b"s", &names(&["a", "b"]));
        assert_eq!(m1.to_bytes(), m2.to_bytes());
    }
}
