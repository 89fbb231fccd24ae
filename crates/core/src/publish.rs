//! The journaled publisher: every byte a corpus run emits goes through
//! here.
//!
//! [`Publisher`] enforces the write-ahead discipline around
//! [`crate::manifest::RunManifest`], one commit group at a time:
//!
//! 1. **journal first** — every terminal verdict of the group (failed,
//!    and released or quarantined with the digest of the bytes about to
//!    appear) is written durably into `run_manifest.json` in *one*
//!    manifest write, *before* any of the group's bytes;
//! 2. **publish second** — the bytes land one file at a time via
//!    [`crate::fsx::write_atomic`], so each appears in one atomic step.
//!
//! A run writes the manifest at begin and once per commit group —
//! `confanon batch` commits the whole run as one group, so its journal
//! costs two manifest writes however many files it releases. A crash
//! between the two steps leaves a manifest that *over*-claims (entries
//! say `released` but files are absent or stale); never an output
//! directory that over-claims. [`Publisher::resume`] exploits exactly
//! that asymmetry: it trusts nothing, re-verifies every `released`
//! entry against its digest, demotes anything unverifiable back to
//! `pending`, sweeps staging files, and hands back the set of files
//! whose outputs are already correct so the pipeline can skip
//! re-emitting them.
//!
//! All durable writes go through the injectable [`Fs`] trait, so the
//! fault-injection suites drive this layer through torn writes and
//! rename failures too.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::error::AnonError;
use crate::fsx::{self, write_atomic, DurabilityStats, Fs};
use crate::manifest::{FileStatus, RunManifest, RUN_MANIFEST_NAME};
use crate::signals::term_requested;

/// Outputs of a commit group, `(corpus name, bytes)`, in publish order.
pub type Outputs<'b> = Vec<(&'b str, &'b [u8])>;

/// The terminal verdicts of one commit group, journaled by
/// [`Publisher::commit`] in a single durable manifest write before any
/// of their bytes publish.
#[derive(Default)]
pub struct CommitGroup<'b> {
    /// Panic-contained files, journaled `failed` (no bytes exist).
    pub failed: Vec<&'b str>,
    /// Gate-clean outputs, published into the output directory.
    pub released: Outputs<'b>,
    /// Gate-quarantined outputs and the directory their bytes go to
    /// (never the output directory), published after every released
    /// file.
    pub quarantined: Option<(&'b Path, Outputs<'b>)>,
}

impl CommitGroup<'_> {
    fn is_empty(&self) -> bool {
        self.failed.is_empty()
            && self.released.is_empty()
            && self.quarantined.as_ref().is_none_or(|(_, q)| q.is_empty())
    }
}

/// The journaled publisher for one corpus run.
pub struct Publisher<'a> {
    fs: &'a dyn Fs,
    out_dir: PathBuf,
    manifest: RunManifest,
    /// True once a complete manifest has been durably written: from then
    /// on any publish failure leaves a resumable run on disk.
    manifest_durable: bool,
    stats: DurabilityStats,
}

/// The released target path for a corpus file (mirrors the historical
/// `<name>.anon` layout of `confanon batch`).
fn released_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.anon"))
}

/// The `SIGTERM` poll of [`Publisher::commit`]: `next` names the write
/// the run stops before.
fn check_term(next: &str) -> Result<(), AnonError> {
    if term_requested() {
        return Err(AnonError::ResumableInterrupted {
            path: next.to_string(),
            message: "SIGTERM received; stopping after the last completed atomic write".to_string(),
        });
    }
    Ok(())
}

/// Best-effort removal of `write_atomic` staging files under `dir`,
/// recursively. Uses the real filesystem directly: both [`Fs`] impls
/// are backed by it, and a sweep that cannot list a directory has
/// nothing it could correctly delete there anyway.
fn sweep_tmp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            sweep_tmp_files(&path);
        } else if fsx::is_tmp_path(&path) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

impl<'a> Publisher<'a> {
    /// Starts a fresh run: writes an all-`pending` manifest durably into
    /// `out_dir` before any output exists, so even a crash during
    /// anonymization leaves a resumable journal behind.
    pub fn begin(
        fs: &'a dyn Fs,
        out_dir: &Path,
        secret: &[u8],
        names: &[String],
    ) -> Result<Publisher<'a>, AnonError> {
        let mut p = Publisher {
            fs,
            out_dir: out_dir.to_path_buf(),
            manifest: RunManifest::new(secret, names),
            manifest_durable: false,
            stats: DurabilityStats::default(),
        };
        p.journal()?;
        Ok(p)
    }

    /// Resumes an interrupted run: loads and validates the journal, then
    /// re-verifies its claims against the output directory.
    ///
    /// Validation failures are [`AnonError::InvalidInput`] — a missing
    /// manifest, a different owner secret, or a corpus whose file list
    /// no longer matches must stop the run, not silently start over.
    ///
    /// Returns the publisher plus the names whose released outputs
    /// verified byte-for-byte (the pipeline may skip re-emitting them).
    /// Everything else — pending, failed, quarantined, or released-but-
    /// unverifiable — is demoted to `pending` and will be re-processed;
    /// stale released files are removed so the output directory never
    /// holds bytes the journal does not vouch for.
    pub fn resume(
        fs: &'a dyn Fs,
        out_dir: &Path,
        secret: &[u8],
        names: &[String],
    ) -> Result<(Publisher<'a>, BTreeSet<String>), AnonError> {
        let manifest_path = out_dir.join(RUN_MANIFEST_NAME);
        let bytes = fs.read(&manifest_path).map_err(|e| AnonError::InvalidInput {
            message: format!(
                "nothing to resume: cannot read {}: {e}",
                manifest_path.display()
            ),
        })?;
        let text = String::from_utf8_lossy(&bytes);
        let mut manifest = RunManifest::from_json_str(&text)?;
        if manifest.secret_fingerprint != RunManifest::fingerprint(secret) {
            return Err(AnonError::InvalidInput {
                message: format!(
                    "{}: owner secret does not match the interrupted run \
                     (fingerprint mismatch)",
                    manifest_path.display()
                ),
            });
        }
        let manifest_names: Vec<&str> = manifest.files.iter().map(|f| f.name.as_str()).collect();
        let corpus_names: Vec<&str> = names.iter().map(String::as_str).collect();
        if manifest_names != corpus_names {
            return Err(AnonError::InvalidInput {
                message: format!(
                    "{}: corpus file list changed since the interrupted run \
                     ({} file(s) then, {} now); resume requires the identical corpus",
                    manifest_path.display(),
                    manifest_names.len(),
                    corpus_names.len()
                ),
            });
        }

        // A crash can strand staging files anywhere we write.
        sweep_tmp_files(out_dir);

        // Re-verify every released claim; trust digests, not statuses.
        let mut verified = BTreeSet::new();
        for entry in &mut manifest.files {
            let keep = entry.status == FileStatus::Released
                && entry.digest.as_deref().is_some_and(|digest| {
                    fs.read(&released_path(out_dir, &entry.name))
                        .is_ok_and(|bytes| RunManifest::digest_hex(&bytes) == digest)
                });
            if keep {
                verified.insert(entry.name.clone());
            } else {
                if entry.status == FileStatus::Released {
                    // Journaled as released but missing or stale on disk:
                    // remove any stale bytes before re-processing.
                    let _ = fs.remove_file(&released_path(out_dir, &entry.name));
                }
                entry.status = FileStatus::Pending;
                entry.digest = None;
            }
        }

        let mut p = Publisher {
            fs,
            out_dir: out_dir.to_path_buf(),
            manifest,
            manifest_durable: false,
            stats: DurabilityStats::default(),
        };
        p.journal()?;
        Ok((p, verified))
    }

    /// Starts a warm incremental run over a corpus that may have grown,
    /// shrunk, or been edited since the previous completed run whose
    /// outputs still sit in `out_dir`.
    ///
    /// `unchanged` names the files whose content watermark matched the
    /// persisted anonymizer state: their previously-released bytes are
    /// digest-verified against the prior manifest and, when they verify,
    /// pre-marked `released` in the *new* manifest so the pipeline can
    /// skip re-emitting them. Everything else starts `pending`. On-disk
    /// outputs the new manifest does not vouch for — deleted corpus
    /// files, edited files, unverifiable bytes — are removed, so the
    /// output directory after the warm run is byte-identical to a cold
    /// run over the same corpus.
    ///
    /// With no readable prior manifest this is exactly
    /// [`Publisher::begin`] plus an empty verified set. A prior manifest
    /// under a different owner secret is refused
    /// ([`AnonError::InvalidInput`]). Unlike [`Publisher::resume`], the
    /// corpus file list is free to differ from the prior run's — that is
    /// the point of an incremental run.
    pub fn begin_incremental(
        fs: &'a dyn Fs,
        out_dir: &Path,
        secret: &[u8],
        names: &[String],
        unchanged: &BTreeSet<String>,
    ) -> Result<(Publisher<'a>, BTreeSet<String>), AnonError> {
        let manifest_path = out_dir.join(RUN_MANIFEST_NAME);
        let prior = match fs.read(&manifest_path) {
            Err(_) => None,
            Ok(bytes) => Some(RunManifest::from_json_str(&String::from_utf8_lossy(&bytes))?),
        };
        let Some(prior) = prior else {
            let p = Publisher::begin(fs, out_dir, secret, names)?;
            return Ok((p, BTreeSet::new()));
        };
        if prior.secret_fingerprint != RunManifest::fingerprint(secret) {
            return Err(AnonError::InvalidInput {
                message: format!(
                    "{}: owner secret does not match the previous run \
                     (fingerprint mismatch)",
                    manifest_path.display()
                ),
            });
        }

        sweep_tmp_files(out_dir);

        // Carry forward only claims that verify *now*: the file must be
        // watermark-unchanged, journaled `released` by the prior run,
        // and its on-disk bytes must still match the journaled digest.
        let mut manifest = RunManifest::new(secret, names);
        let mut verified = BTreeSet::new();
        for entry in &mut manifest.files {
            if !unchanged.contains(&entry.name) {
                continue;
            }
            let carried = prior.entry(&entry.name).and_then(|old| {
                if old.status != FileStatus::Released {
                    return None;
                }
                let digest = old.digest.as_deref()?;
                let bytes = fs.read(&released_path(out_dir, &entry.name)).ok()?;
                (RunManifest::digest_hex(&bytes) == digest).then(|| digest.to_string())
            });
            if let Some(digest) = carried {
                entry.status = FileStatus::Released;
                entry.digest = Some(digest);
                verified.insert(entry.name.clone());
            }
        }

        // Remove every prior output the new manifest does not vouch for:
        // stale bytes of edited files (they re-publish), and outputs of
        // corpus files that no longer exist (a cold run would not emit
        // them).
        for old in &prior.files {
            if !verified.contains(&old.name) {
                let _ = fs.remove_file(&released_path(out_dir, &old.name));
            }
        }

        let mut p = Publisher {
            fs,
            out_dir: out_dir.to_path_buf(),
            manifest,
            manifest_durable: false,
            stats: DurabilityStats::default(),
        };
        p.journal()?;
        Ok((p, verified))
    }

    /// Durably rewrites the journal with the current in-memory state.
    fn journal(&mut self) -> Result<(), AnonError> {
        let path = self.out_dir.join(RUN_MANIFEST_NAME);
        write_atomic(self.fs, &path, &self.manifest.to_bytes(), &mut self.stats)?;
        self.manifest_durable = true;
        Ok(())
    }

    /// Marks `name` with `status`/`digest` or reports the corpus/journal
    /// mismatch as an error.
    fn set_entry(
        &mut self,
        name: &str,
        status: FileStatus,
        digest: Option<String>,
    ) -> Result<(), AnonError> {
        if self.manifest.set(name, status, digest) {
            Ok(())
        } else {
            Err(AnonError::InvalidInput {
                message: format!("{RUN_MANIFEST_NAME}: no entry for corpus file {name:?}"),
            })
        }
    }

    /// Commits one group: journals every verdict of `group` in one
    /// durable manifest write, *then* publishes the bytes atomically —
    /// released files in order, then quarantined ones. At no observable
    /// point does the output directory contain a file whose digest is
    /// absent from the journal.
    ///
    /// `SIGTERM` drains, it doesn't kill: the flag is polled before the
    /// journal write and between byte writes, so an in-flight rename
    /// always completes and the journal stays consistent. The files not
    /// yet written are exactly what `--resume` finds missing; the error
    /// is [`AnonError::ResumableInterrupted`] naming the next write.
    pub fn commit(&mut self, group: &CommitGroup<'_>) -> Result<(), AnonError> {
        if group.is_empty() {
            return Ok(());
        }
        check_term(RUN_MANIFEST_NAME)?;
        for name in &group.failed {
            self.set_entry(name, FileStatus::Failed, None)?;
        }
        for (name, bytes) in &group.released {
            self.set_entry(
                name,
                FileStatus::Released,
                Some(RunManifest::digest_hex(bytes)),
            )?;
        }
        if let Some((_, files)) = &group.quarantined {
            for (name, bytes) in files {
                let digest = Some(RunManifest::digest_hex(bytes));
                self.set_entry(name, FileStatus::Quarantined, digest)?;
            }
        }
        self.journal()?;
        for (name, bytes) in &group.released {
            check_term(name)?;
            write_atomic(
                self.fs,
                &released_path(&self.out_dir, name),
                bytes,
                &mut self.stats,
            )?;
        }
        if let Some((dir, files)) = &group.quarantined {
            for (name, bytes) in files {
                check_term(name)?;
                write_atomic(self.fs, &released_path(dir, name), bytes, &mut self.stats)?;
            }
        }
        Ok(())
    }

    /// Releases one file: a [`Publisher::commit`] of a group holding
    /// just `name`.
    pub fn release(&mut self, name: &str, bytes: &[u8]) -> Result<(), AnonError> {
        self.commit(&CommitGroup {
            released: vec![(name, bytes)],
            ..CommitGroup::default()
        })
    }

    /// Journals every name in `names` as a decoy input (`--decoys N`) in
    /// one durable write — the owner's provenance record for injected
    /// chaff. Called right after `begin`/`resume`/`begin_incremental`
    /// so the flags are on disk before any decoy bytes publish.
    pub fn mark_decoys(&mut self, names: &BTreeSet<String>) -> Result<(), AnonError> {
        if names.is_empty() {
            return Ok(());
        }
        if !self.manifest.mark_decoys(names) {
            return Err(AnonError::InvalidInput {
                message: format!("{RUN_MANIFEST_NAME}: decoy name not in corpus"),
            });
        }
        self.journal()
    }

    /// Writes an unjournaled artifact (a leak report, a bench file)
    /// atomically and durably through the same counters.
    pub fn write_report(&mut self, path: &Path, bytes: &[u8]) -> Result<(), AnonError> {
        write_atomic(self.fs, path, bytes, &mut self.stats)
    }

    /// True once a complete manifest is durably on disk — the condition
    /// under which a later publish failure is *resumable* rather than
    /// plainly fatal.
    pub fn manifest_durable(&self) -> bool {
        self.manifest_durable
    }

    /// The current journal state (for summaries and assertions).
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// Finishes the run, yielding the final journal and the durability
    /// counters accumulated across every write.
    pub fn finish(self) -> (RunManifest, DurabilityStats) {
        (self.manifest, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsx::StdFs;
    use confanon_testkit::faultfs::FaultFs;
    use std::collections::BTreeMap;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "confanon-publish-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mk tmpdir");
        d
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn manifest_on_disk(dir: &Path) -> RunManifest {
        let text =
            std::fs::read_to_string(dir.join(RUN_MANIFEST_NAME)).expect("manifest readable");
        RunManifest::from_json_str(&text).expect("manifest parses")
    }

    /// Every file under `dir`, by relative path.
    fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
            for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(root, &path, out);
                } else {
                    let rel = path.strip_prefix(root).expect("rel");
                    let bytes = std::fs::read(&path).expect("read");
                    out.insert(rel.to_string_lossy().into_owned(), bytes);
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(dir, dir, &mut out);
        out
    }

    /// One released body per name.
    fn bodies(ns: &[String]) -> Vec<Vec<u8>> {
        ns.iter()
            .map(|n| format!("anon {n}\n").into_bytes())
            .collect()
    }

    /// A group releasing `ns` (with `bodies`), in order.
    fn released<'b>(ns: &'b [String], bodies: &'b [Vec<u8>]) -> CommitGroup<'b> {
        CommitGroup {
            released: ns
                .iter()
                .map(String::as_str)
                .zip(bodies.iter().map(Vec::as_slice))
                .collect(),
            ..CommitGroup::default()
        }
    }

    /// A quiet [`FaultFs`] that counts completed manifest writes and
    /// switches permanent ENOSPC on at output write number `fail_at`
    /// (1-based; 0 never fails).
    struct ScriptedFs {
        inner: FaultFs,
        fail_at: u64,
        output_writes: AtomicU64,
        manifest_writes: AtomicU64,
    }

    impl ScriptedFs {
        fn new(fail_at: u64) -> ScriptedFs {
            ScriptedFs {
                inner: FaultFs::quiet(7),
                fail_at,
                output_writes: AtomicU64::new(0),
                manifest_writes: AtomicU64::new(0),
            }
        }

        fn manifest_writes(&self) -> u64 {
            self.manifest_writes.load(Ordering::SeqCst)
        }
    }

    fn is_manifest(path: &Path) -> bool {
        path.file_name()
            .is_some_and(|n| n.to_string_lossy().contains(RUN_MANIFEST_NAME))
    }

    impl Fs for ScriptedFs {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if !is_manifest(path)
                && self.output_writes.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_at
            {
                self.inner.set_enospc(true);
            }
            self.inner.write_sync(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)?;
            if is_manifest(to) {
                self.manifest_writes.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.inner.sync_dir(dir)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    #[test]
    fn begin_and_one_commit_write_the_manifest_twice_at_any_group_size() {
        for n in [1usize, 50] {
            let dir = tmpdir("two-writes");
            let ns: Vec<String> = (0..n).map(|i| format!("net/r{i}.cfg")).collect();
            let bodies = bodies(&ns);
            let fs = ScriptedFs::new(0);
            let mut p = Publisher::begin(&fs, &dir, b"s", &ns).expect("begin");
            p.commit(&released(&ns, &bodies)).expect("commit");
            let (manifest, stats) = p.finish();
            assert_eq!(fs.manifest_writes(), 2, "n={n}: begin + one group write");
            assert_eq!(stats.atomic_writes, n as u64 + 2, "n={n}");
            assert_eq!(manifest.pending_count(), 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn committed_manifest_vouches_for_every_file() {
        let dir = tmpdir("vouch");
        let qdir = tmpdir("vouch-q");
        let ns = names(&["a.cfg", "b.cfg", "c.cfg", "d.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.commit(&CommitGroup {
            failed: vec!["d.cfg"],
            released: vec![("a.cfg", b"anon a"), ("b.cfg", b"anon b")],
            quarantined: Some((&qdir, vec![("c.cfg", b"leaky c")])),
        })
        .expect("commit");
        let m = manifest_on_disk(&dir);
        assert_eq!(m, *p.manifest(), "the journal on disk is the final one");
        for (root, name, status) in [
            (&dir, "a.cfg", FileStatus::Released),
            (&dir, "b.cfg", FileStatus::Released),
            (&qdir, "c.cfg", FileStatus::Quarantined),
        ] {
            let entry = m.entry(name).expect("entry");
            let bytes = std::fs::read(root.join(format!("{name}.anon"))).expect("published");
            assert_eq!(entry.status, status, "{name}");
            assert_eq!(
                entry.digest,
                Some(RunManifest::digest_hex(&bytes)),
                "{name}"
            );
        }
        let failed = m.entry("d.cfg").expect("entry");
        assert_eq!(
            (failed.status, failed.digest.as_deref()),
            (FileStatus::Failed, None)
        );
        assert!(
            !dir.join("c.cfg.anon").exists(),
            "quarantined bytes stay out"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&qdir);
    }

    #[test]
    fn permanent_failure_mid_group_leaves_a_resumable_journal() {
        let ns: Vec<String> = (0..5).map(|i| format!("net/r{i}.cfg")).collect();
        let bodies = bodies(&ns);
        let clean = tmpdir("fault-clean");
        let mut p = Publisher::begin(&StdFs, &clean, b"s", &ns).expect("begin");
        p.commit(&released(&ns, &bodies)).expect("clean commit");
        drop(p);
        let golden = snapshot(&clean);

        for k in 1..=ns.len() {
            let dir = tmpdir("fault");
            let fs = ScriptedFs::new(k as u64);
            let mut p = Publisher::begin(&fs, &dir, b"s", &ns).expect("begin");
            let err = p
                .commit(&released(&ns, &bodies))
                .expect_err("write k fails");
            assert!(matches!(err, AnonError::Io { .. }), "k={k}: {err}");
            assert!(p.manifest_durable());
            drop(p);

            // The journal went first and is durable: it claims every
            // file, and vouches for each one that made it to disk.
            let m = manifest_on_disk(&dir);
            assert!(
                m.files.iter().all(|e| e.status == FileStatus::Released),
                "k={k}"
            );
            let on_disk = snapshot(&dir);
            assert_eq!(on_disk.len(), k, "k={k}: the manifest and k-1 outputs");
            for (rel, bytes) in &on_disk {
                if let Some(name) = rel.strip_suffix(".anon") {
                    let entry = m.entry(name).expect("journaled");
                    assert_eq!(entry.digest, Some(RunManifest::digest_hex(bytes)), "k={k}");
                }
            }

            fs.inner.set_enospc(false);
            let (mut p, verified) = Publisher::resume(&fs, &dir, b"s", &ns).expect("resume");
            assert_eq!(verified, ns[..k - 1].iter().cloned().collect(), "k={k}");
            p.commit(&released(&ns[k - 1..], &bodies[k - 1..]))
                .expect("finish");
            assert_eq!(
                snapshot(&dir),
                golden,
                "k={k}: resumed run differs from a clean run"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&clean);
    }

    #[test]
    fn begin_release_finish_round_trip() {
        let dir = tmpdir("roundtrip");
        let ns = names(&["a.cfg", "net/b.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s3cret", &ns).expect("begin");
        assert!(p.manifest_durable());
        assert_eq!(manifest_on_disk(&dir).pending_count(), 2);

        p.release("a.cfg", b"anon a\n").expect("release a");
        p.release("net/b.cfg", b"anon b\n").expect("release b");
        let (manifest, stats) = p.finish();

        assert_eq!(manifest.pending_count(), 0);
        assert_eq!(manifest_on_disk(&dir), manifest);
        assert_eq!(
            std::fs::read(dir.join("a.cfg.anon")).expect("read"),
            b"anon a\n"
        );
        assert_eq!(
            std::fs::read(dir.join("net/b.cfg.anon")).expect("read"),
            b"anon b\n"
        );
        // begin + 2×(journal + publish) = 5 atomic writes.
        assert_eq!(stats.atomic_writes, 5);
        let entry = manifest.entry("a.cfg").expect("entry");
        assert_eq!(entry.status, FileStatus::Released);
        assert_eq!(entry.digest.as_deref(), Some(RunManifest::digest_hex(b"anon a\n").as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_journals_before_publishing() {
        // After a release, the on-disk manifest must vouch for the
        // on-disk bytes; the converse (bytes without journal) is the
        // state release() can never create.
        let dir = tmpdir("wal");
        let ns = names(&["a.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.release("a.cfg", b"payload").expect("release");
        let m = manifest_on_disk(&dir);
        let on_disk = std::fs::read(dir.join("a.cfg.anon")).expect("read");
        assert_eq!(
            m.entry("a.cfg").and_then(|e| e.digest.clone()),
            Some(RunManifest::digest_hex(&on_disk))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_verified_and_demotes_the_rest() {
        let dir = tmpdir("resume");
        let ns = names(&["a.cfg", "b.cfg", "c.cfg", "d.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.release("a.cfg", b"good").expect("release a");
        p.release("b.cfg", b"stale").expect("release b");
        p.commit(&CommitGroup {
            failed: vec!["c.cfg"],
            ..CommitGroup::default()
        })
        .expect("fail c");
        drop(p);
        // Corrupt b's output (a torn/stale file) and strand a staging file.
        std::fs::write(dir.join("b.cfg.anon"), b"sta").expect("corrupt");
        std::fs::write(dir.join(".x.anon.1.2.fsx-tmp"), b"junk").expect("tmp");

        let (p, verified) = Publisher::resume(&StdFs, &dir, b"s", &ns).expect("resume");
        assert_eq!(verified, BTreeSet::from(["a.cfg".to_string()]));
        // b demoted and its stale bytes removed; c and d pending again.
        assert!(!dir.join("b.cfg.anon").exists());
        assert!(!dir.join(".x.anon.1.2.fsx-tmp").exists());
        let m = p.manifest();
        assert_eq!(m.entry("a.cfg").map(|e| e.status), Some(FileStatus::Released));
        for n in ["b.cfg", "c.cfg", "d.cfg"] {
            assert_eq!(m.entry(n).map(|e| e.status), Some(FileStatus::Pending), "{n}");
        }
        assert_eq!(manifest_on_disk(&dir), *m, "demotions are re-journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_missing_manifest_wrong_secret_and_changed_corpus() {
        let dir = tmpdir("reject");
        let ns = names(&["a.cfg"]);
        assert!(
            matches!(
                Publisher::resume(&StdFs, &dir, b"s", &ns),
                Err(AnonError::InvalidInput { .. })
            ),
            "no manifest"
        );
        drop(Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin"));
        assert!(
            matches!(
                Publisher::resume(&StdFs, &dir, b"other", &ns),
                Err(AnonError::InvalidInput { .. })
            ),
            "wrong secret"
        );
        assert!(
            matches!(
                Publisher::resume(&StdFs, &dir, b"s", &names(&["a.cfg", "new.cfg"])),
                Err(AnonError::InvalidInput { .. })
            ),
            "changed corpus"
        );
        let (_, verified) = Publisher::resume(&StdFs, &dir, b"s", &ns).expect("valid resume");
        assert!(verified.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_writes_outside_out_dir_and_journals() {
        let dir = tmpdir("quarantine-out");
        let qdir = tmpdir("quarantine-q");
        let ns = names(&["a.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.commit(&CommitGroup {
            quarantined: Some((&qdir, vec![("a.cfg", b"leaky")])),
            ..CommitGroup::default()
        })
        .expect("quarantine");
        assert!(!dir.join("a.cfg.anon").exists(), "never lands in out-dir");
        assert_eq!(std::fs::read(qdir.join("a.cfg.anon")).expect("read"), b"leaky");
        assert_eq!(
            manifest_on_disk(&dir).entry("a.cfg").map(|e| e.status),
            Some(FileStatus::Quarantined)
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&qdir);
    }

    #[test]
    fn begin_incremental_without_prior_manifest_is_begin() {
        let dir = tmpdir("incr-cold");
        let ns = names(&["a.cfg", "b.cfg"]);
        let unchanged = BTreeSet::from(["a.cfg".to_string()]);
        let (p, verified) =
            Publisher::begin_incremental(&StdFs, &dir, b"s", &ns, &unchanged).expect("begin");
        assert!(verified.is_empty(), "nothing to carry on a cold start");
        assert_eq!(p.manifest().pending_count(), 2);
        assert_eq!(manifest_on_disk(&dir).pending_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_incremental_carries_verified_and_prunes_the_rest() {
        let dir = tmpdir("incr-warm");
        let ns = names(&["a.cfg", "b.cfg", "gone.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.release("a.cfg", b"anon a\n").expect("a");
        p.release("b.cfg", b"anon b\n").expect("b");
        p.release("gone.cfg", b"anon gone\n").expect("gone");
        drop(p);

        // The corpus grows by new.cfg, loses gone.cfg, and b.cfg was
        // edited (not in the unchanged set). Only a.cfg carries forward.
        let ns2 = names(&["a.cfg", "b.cfg", "new.cfg"]);
        let unchanged = BTreeSet::from(["a.cfg".to_string()]);
        let (p2, verified) =
            Publisher::begin_incremental(&StdFs, &dir, b"s", &ns2, &unchanged).expect("warm");
        assert_eq!(verified, BTreeSet::from(["a.cfg".to_string()]));
        assert_eq!(
            std::fs::read(dir.join("a.cfg.anon")).expect("kept"),
            b"anon a\n"
        );
        assert!(!dir.join("b.cfg.anon").exists(), "edited file's bytes pruned");
        assert!(!dir.join("gone.cfg.anon").exists(), "deleted file's bytes pruned");
        let m = p2.manifest();
        assert_eq!(m.entry("a.cfg").map(|e| e.status), Some(FileStatus::Released));
        assert_eq!(m.entry("b.cfg").map(|e| e.status), Some(FileStatus::Pending));
        assert_eq!(m.entry("new.cfg").map(|e| e.status), Some(FileStatus::Pending));
        assert!(m.entry("gone.cfg").is_none(), "new manifest covers the new corpus");
        assert_eq!(manifest_on_disk(&dir), *m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_incremental_demotes_unchanged_files_with_tampered_bytes() {
        // An "unchanged" input whose released bytes were tampered with on
        // disk must not carry forward: trust digests, not watermarks.
        let dir = tmpdir("incr-tamper");
        let ns = names(&["a.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.release("a.cfg", b"anon a\n").expect("a");
        drop(p);
        std::fs::write(dir.join("a.cfg.anon"), b"tampered").expect("tamper");

        let unchanged = BTreeSet::from(["a.cfg".to_string()]);
        let (p2, verified) =
            Publisher::begin_incremental(&StdFs, &dir, b"s", &ns, &unchanged).expect("warm");
        assert!(verified.is_empty());
        assert!(!dir.join("a.cfg.anon").exists(), "tampered bytes pruned");
        assert_eq!(
            p2.manifest().entry("a.cfg").map(|e| e.status),
            Some(FileStatus::Pending)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_incremental_rejects_a_foreign_manifest() {
        let dir = tmpdir("incr-foreign");
        let ns = names(&["a.cfg"]);
        drop(Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin"));
        assert!(
            matches!(
                Publisher::begin_incremental(&StdFs, &dir, b"other", &ns, &BTreeSet::new()),
                Err(AnonError::InvalidInput { .. })
            ),
            "wrong secret"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mark_decoys_journals_provenance_and_survives_resume() {
        let dir = tmpdir("decoys");
        let ns = names(&["a.cfg", "net/zz-decoy-0.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        let decoys = BTreeSet::from(["net/zz-decoy-0.cfg".to_string()]);
        p.mark_decoys(&decoys).expect("mark");
        assert_eq!(
            manifest_on_disk(&dir).decoy_names(),
            vec!["net/zz-decoy-0.cfg".to_string()],
            "flags are journaled before any bytes publish"
        );
        p.release("a.cfg", b"real").expect("a");
        p.release("net/zz-decoy-0.cfg", b"chaff").expect("decoy");
        drop(p);

        // Resume keeps the provenance flag even while re-verifying.
        let (p2, verified) = Publisher::resume(&StdFs, &dir, b"s", &ns).expect("resume");
        assert_eq!(verified.len(), 2);
        assert_eq!(p2.manifest().decoy_names(), vec!["net/zz-decoy-0.cfg".to_string()]);

        // Unknown decoy names are a corpus/journal mismatch.
        let mut p3 = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin again");
        let bogus = BTreeSet::from(["missing.cfg".to_string()]);
        assert!(matches!(
            p3.mark_decoys(&bogus),
            Err(AnonError::InvalidInput { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_resume_is_idempotent() {
        let dir = tmpdir("idempotent");
        let ns = names(&["a.cfg", "b.cfg"]);
        let mut p = Publisher::begin(&StdFs, &dir, b"s", &ns).expect("begin");
        p.release("a.cfg", b"one").expect("a");
        p.release("b.cfg", b"two").expect("b");
        let (done, _) = p.finish();
        let (p2, verified) = Publisher::resume(&StdFs, &dir, b"s", &ns).expect("resume");
        assert_eq!(verified.len(), 2, "everything verifies, nothing to redo");
        assert_eq!(*p2.manifest(), done);
        assert_eq!(manifest_on_disk(&dir), done);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
