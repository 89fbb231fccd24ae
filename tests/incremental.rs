//! The cross-session equivalence suite for `--state` incremental runs
//! (the tentpole acceptance criterion).
//!
//! The claim under test: a *warm* run — loading a `confanon-state-v1`
//! directory produced by an earlier session over a subset of the corpus
//! — is observationally identical to a *cold* run over the full corpus,
//! for every artifact a consumer can see: released bytes, the
//! `run_manifest.json` journal, and the deterministic metrics section.
//! Warm runs additionally skip every watermark-unchanged file (checked
//! via the metrics `state` block), and the equivalence holds at any
//! `--jobs` value, over chaos corpora, and from every crash point of
//! the warm run via `--resume`.
//!
//! Scope of the byte-identity claim: it covers *append growth* — new
//! files sorting after every session-1 file — because there the warm
//! journal (session-1 first-mapped order, then new discoveries) equals
//! the cold run's first-occurrence order, so trie nodes are created in
//! the same sequence and the order-sensitive point-special repairs land
//! identically. For arbitrary growth or edits the weaker (and primary)
//! guarantee holds instead, and is asserted by the watermark tests
//! below: every previously issued mapping stays exactly stable.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use confanon::core::{AnonState, Anonymizer, AnonymizerConfig, RunManifest};
use confanon_testkit::json::Json;

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_confanon"))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "confanon-incr-{name}-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mktemp");
    d
}

/// Recursively collects `relative path → bytes` under `dir`.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for e in std::fs::read_dir(dir).expect("read_dir").flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else {
                let rel = p
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .to_string();
                out.insert(rel, std::fs::read(&p).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    if dir.is_dir() {
        walk(dir, dir, &mut out);
    }
    out
}

fn copy_dir(src: &Path, dst: &Path) {
    for (rel, bytes) in snapshot(src) {
        let target = dst.join(&rel);
        std::fs::create_dir_all(target.parent().expect("parent")).expect("mkdir");
        std::fs::write(&target, &bytes).expect("copy file");
    }
}

/// Runs `batch --secret incr-suite-secret` with optional `--state`,
/// `--resume`, `--metrics`; returns (exit code, stderr).
fn run_batch(
    corpus: &Path,
    out_dir: &Path,
    state_dir: Option<&Path>,
    jobs: u32,
    resume: bool,
    metrics: Option<&Path>,
) -> (Option<i32>, String) {
    let mut cmd = bin();
    cmd.args(["batch", "--secret", "incr-suite-secret", "--jobs", &jobs.to_string()]);
    if resume {
        cmd.arg("--resume");
    }
    if let Some(s) = state_dir {
        cmd.arg("--state").arg(s);
    }
    if let Some(m) = metrics {
        cmd.arg("--metrics").arg(m);
    }
    cmd.arg("--out-dir").arg(out_dir).arg(corpus);
    cmd.env_remove("CONFANON_CRASH_AFTER");
    let out = cmd.output().expect("run batch");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).to_string())
}

/// The deterministic section of a metrics file, canonically printed by
/// the `metrics --deterministic` subcommand (the supported diff tool).
fn deterministic_section(metrics: &Path) -> String {
    let out = bin()
        .args(["metrics", "--deterministic"])
        .arg(metrics)
        .output()
        .expect("run metrics");
    assert!(out.status.success(), "metrics validation failed on {}", metrics.display());
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// The `timing.state` block of a metrics file as parsed JSON.
fn state_block(metrics: &Path) -> Json {
    let text = std::fs::read_to_string(metrics).expect("read metrics");
    let doc = Json::parse(&text).expect("valid metrics json");
    doc.get("timing")
        .and_then(|t| t.get("state"))
        .cloned()
        .expect("metrics timing has a state block")
}

fn state_u64(block: &Json, key: &str) -> u64 {
    block
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("state block missing {key}")) as u64
}

/// A two-network generated corpus, plus the subset holding only its
/// earlier-sorting network. Growth is then a *suffix append* — every new
/// file sorts after every session-1 file — which is the precondition of
/// the byte-identity claim: the warm journal (session-1 first-mapped
/// order, then new discoveries) equals the cold run's first-occurrence
/// order, so both runs create trie nodes in the same sequence and the
/// order-sensitive point-special repairs land identically.
fn generated_split(root: &Path) -> (PathBuf, PathBuf) {
    let full = root.join("corpus-full");
    let status = bin()
        .args(["generate", "--networks", "2", "--routers", "4", "--seed", "1964"])
        .arg("--out-dir")
        .arg(&full)
        .status()
        .expect("run generate");
    assert!(status.success());
    let nets: Vec<String> = std::fs::read_dir(&full)
        .expect("read corpus")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().to_string())
        .collect();
    assert_eq!(nets.len(), 2, "expected two network directories");
    let small = root.join("corpus-small");
    let keep = nets.iter().min().expect("a network"); // the earlier-sorting one
    copy_dir(&full.join(keep), &small.join(keep));
    (small, full)
}

/// The `phase` spans of a `--trace` file: name → how many.
fn phase_spans(trace: &Path) -> BTreeMap<String, usize> {
    let text = std::fs::read_to_string(trace).expect("read trace");
    let doc = Json::parse(&text).expect("valid trace json");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
    let mut spans = BTreeMap::new();
    for e in events {
        if e.get("cat").and_then(Json::as_str) == Some("phase") {
            let name = e.get("name").and_then(Json::as_str).expect("span name");
            *spans.entry(name.to_string()).or_insert(0) += 1;
        }
    }
    spans
}

fn cfg_count(dir: &Path) -> u64 {
    snapshot(dir).keys().filter(|k| k.ends_with(".cfg")).count() as u64
}

#[test]
fn warm_append_growth_matches_cold_run_at_any_jobs() {
    let root = tmpdir("growth");
    let (small, full) = generated_split(&root);
    let small_n = cfg_count(&small);
    let full_n = cfg_count(&full);
    assert!(full_n > small_n && small_n > 0);

    // Session 1: cold run over the subset, persisting state.
    let out1 = root.join("out");
    let st1 = root.join("st");
    let (code, stderr) = run_batch(&small, &out1, Some(&st1), 2, false, None);
    assert_eq!(code, Some(0), "session 1: {stderr}");

    // The cold reference over the full corpus.
    let out_cold = root.join("out-cold");
    let m_cold = root.join("m-cold.json");
    let (code, stderr) = run_batch(&full, &out_cold, Some(root.join("st-cold").as_path()), 1, false, Some(&m_cold));
    assert_eq!(code, Some(0), "cold reference: {stderr}");
    let golden = snapshot(&out_cold);
    let golden_det = deterministic_section(&m_cold);

    for jobs in [1u32, 2, 4] {
        let out_w = root.join(format!("out-warm-j{jobs}"));
        let st_w = root.join(format!("st-warm-j{jobs}"));
        copy_dir(&out1, &out_w);
        copy_dir(&st1, &st_w);
        let m_w = root.join(format!("m-warm-j{jobs}.json"));
        let (code, stderr) = run_batch(&full, &out_w, Some(&st_w), jobs, false, Some(&m_w));
        assert_eq!(code, Some(0), "warm run jobs={jobs}: {stderr}");
        assert!(stderr.contains("state: loaded"), "jobs={jobs}: {stderr}");
        assert_eq!(
            snapshot(&out_w),
            golden,
            "jobs={jobs}: warm outputs + manifest differ from the cold run"
        );
        assert_eq!(
            deterministic_section(&m_w),
            golden_det,
            "jobs={jobs}: warm deterministic metrics differ from the cold run"
        );
        let block = state_block(&m_w);
        assert_eq!(state_u64(&block, "files_skipped"), small_n, "jobs={jobs}");
        assert_eq!(state_u64(&block, "files_processed"), full_n - small_n, "jobs={jobs}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unchanged_corpus_warm_rerun_skips_every_file() {
    let root = tmpdir("unchanged");
    let (_, full) = generated_split(&root);
    let n = cfg_count(&full);

    let out = root.join("out");
    let st = root.join("st");
    let m1 = root.join("m1.json");
    let (code, stderr) = run_batch(&full, &out, Some(&st), 2, false, Some(&m1));
    assert_eq!(code, Some(0), "cold: {stderr}");
    let done = snapshot(&out);
    let st_done = snapshot(&st);

    let m2 = root.join("m2.json");
    let (code, stderr) = run_batch(&full, &out, Some(&st), 4, false, Some(&m2));
    assert_eq!(code, Some(0), "warm: {stderr}");
    assert!(
        stderr.contains("released 0 file(s)"),
        "warm rerun must release nothing: {stderr}"
    );
    let block = state_block(&m2);
    assert_eq!(state_u64(&block, "files_skipped"), n, "every file must skip");
    assert_eq!(state_u64(&block, "files_processed"), 0);
    assert!(state_u64(&block, "trie4_nodes_restored") > 0);
    assert_eq!(snapshot(&out), done, "outputs must not change by a byte");
    assert_eq!(snapshot(&st), st_done, "rewritten state must be byte-identical");
    assert_eq!(
        deterministic_section(&m2),
        deterministic_section(&m1),
        "deterministic metrics must match the cold run"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chaos_corpus_incremental_equivalence() {
    // Hostile inputs take the quarantine and panic-containment paths;
    // the warm/cold equivalence must not depend on inputs being tame.
    let root = tmpdir("chaos");
    let seedbed = root.join("seedbed");
    let status = bin()
        .args(["chaos", "--seed", "2024", "--count", "8"])
        .arg("--out-dir")
        .arg(&seedbed)
        .status()
        .expect("run chaos");
    assert!(status.success());
    let names: Vec<String> = {
        let mut v: Vec<String> = snapshot(&seedbed).into_keys().collect();
        v.sort();
        v
    };
    assert!(names.len() >= 6, "chaos corpus too small");
    let small = root.join("small");
    let full = root.join("full");
    for (i, rel) in names.iter().enumerate() {
        let bytes = std::fs::read(seedbed.join(rel)).expect("read chaos file");
        std::fs::create_dir_all(full.join(rel).parent().expect("parent")).expect("mkdir");
        std::fs::write(full.join(rel), &bytes).expect("write");
        if i < names.len() / 2 {
            std::fs::create_dir_all(small.join(rel).parent().expect("parent")).expect("mkdir");
            std::fs::write(small.join(rel), &bytes).expect("write");
        }
    }

    let out_w = root.join("out-warm");
    let st_w = root.join("st-warm");
    let (code1, stderr) = run_batch(&small, &out_w, Some(&st_w), 2, false, None);
    assert!(code1.is_some(), "session 1 died: {stderr}");
    let (code_w, stderr_w) = run_batch(&full, &out_w, Some(&st_w), 4, false, None);

    let out_c = root.join("out-cold");
    let (code_c, stderr_c) = run_batch(&full, &out_c, Some(root.join("st-cold").as_path()), 2, false, None);

    assert_eq!(code_w, code_c, "exit codes diverge\nwarm: {stderr_w}\ncold: {stderr_c}");
    assert_eq!(
        snapshot(&out_w),
        snapshot(&out_c),
        "warm chaos outputs differ from cold"
    );
    // Quarantined bytes (if the gate tripped) must agree too.
    let q = |p: &Path| {
        let mut s = p.as_os_str().to_os_string();
        s.push("-quarantine");
        PathBuf::from(s)
    };
    assert_eq!(snapshot(&q(&out_w)), snapshot(&q(&out_c)), "quarantines diverge");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_crash_point_of_a_warm_run_resumes_byte_identically() {
    let root = tmpdir("crash");
    let (small, full) = generated_split(&root);

    // Session 1 over the subset; its artifacts are the warm baseline
    // every crash trial starts from.
    let out1 = root.join("out");
    let st1 = root.join("st");
    let (code, stderr) = run_batch(&small, &out1, Some(&st1), 1, false, None);
    assert_eq!(code, Some(0), "session 1: {stderr}");

    // Golden uninterrupted warm run; its durable-write count (which now
    // includes the state.json write) enumerates the crash points.
    let out_g = root.join("out-golden");
    let st_g = root.join("st-golden");
    copy_dir(&out1, &out_g);
    copy_dir(&st1, &st_g);
    let (code, stderr) = run_batch(&full, &out_g, Some(&st_g), 1, false, None);
    assert_eq!(code, Some(0), "golden warm run: {stderr}");
    let writes: u64 = stderr
        .lines()
        .find(|l| l.starts_with("durability: "))
        .and_then(|l| l.trim_start_matches("durability: ").split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .expect("durability summary");
    assert!(writes >= 3, "warm run too small to exercise crash points");
    let golden_out = snapshot(&out_g);
    let golden_state = snapshot(&st_g);

    for k in 1..=writes {
        let out_k = root.join(format!("out-k{k}"));
        let st_k = root.join(format!("st-k{k}"));
        copy_dir(&out1, &out_k);
        copy_dir(&st1, &st_k);

        let mut cmd = bin();
        cmd.args(["batch", "--secret", "incr-suite-secret", "--jobs", "2"])
            .arg("--state")
            .arg(&st_k)
            .arg("--out-dir")
            .arg(&out_k)
            .arg(&full)
            .env("CONFANON_CRASH_AFTER", k.to_string());
        let out = cmd.output().expect("run crash batch");
        assert_ne!(out.status.code(), Some(0), "k={k}: crash run must not exit cleanly");

        // No staging residue anywhere: the torn write discipline covers
        // the state directory as much as the output directory.
        for dir in [&out_k, &st_k] {
            assert!(
                !snapshot(dir).keys().any(|p| p.ends_with(".fsx-tmp")),
                "k={k}: staging residue under {}",
                dir.display()
            );
        }

        let (code, stderr) = run_batch(&full, &out_k, Some(&st_k), 1, true, None);
        assert_eq!(code, Some(0), "k={k}: resume failed: {stderr}");
        assert_eq!(
            snapshot(&out_k),
            golden_out,
            "k={k}: resumed outputs differ from the golden warm run"
        );
        assert_eq!(
            snapshot(&st_k),
            golden_state,
            "k={k}: resumed state differs from the golden warm run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---- watermark edge cases ---------------------------------------------

/// The anonymized form of the `12.126.236.17` neighbor in a released
/// file: the token after `neighbor` on the `remote-as 701` line.
fn neighbor_token(out_dir: &Path, name: &str) -> String {
    let text = std::fs::read_to_string(out_dir.join(format!("{name}.anon")))
        .unwrap_or_else(|e| panic!("{name}.anon: {e}"));
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if it.next() == Some("neighbor") {
            if let Some(tok) = it.next() {
                return tok.to_string();
            }
        }
    }
    panic!("{name}.anon has no neighbor line:\n{text}");
}

#[test]
fn edited_file_is_reprocessed_and_keeps_its_old_mappings() {
    let root = tmpdir("edited");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    std::fs::write(
        corpus.join("a.cfg"),
        "hostname alpha.example.com\nrouter bgp 65001\n neighbor 12.126.236.17 remote-as 701\n",
    )
    .expect("write a");
    std::fs::write(
        corpus.join("b.cfg"),
        "hostname bravo.example.com\nrouter bgp 65002\n neighbor 12.126.236.17 remote-as 701\n",
    )
    .expect("write b");

    let out = root.join("out");
    let st = root.join("st");
    let (code, stderr) = run_batch(&corpus, &out, Some(&st), 1, false, None);
    assert_eq!(code, Some(0), "session 1: {stderr}");
    let a_before = std::fs::read(out.join("a.cfg.anon")).expect("a.anon");
    let tok_before = neighbor_token(&out, "b.cfg");
    assert_eq!(tok_before, neighbor_token(&out, "a.cfg"), "shared address, shared mapping");

    // Edit b.cfg: same name, new digest. It must be re-processed, and
    // the shared address must keep the session-1 mapping.
    std::fs::write(
        corpus.join("b.cfg"),
        "hostname bravo.example.com\nrouter bgp 65002\n neighbor 12.126.236.17 remote-as 701\n\
         interface Ethernet1\n ip address 12.126.240.9 255.255.255.0\n",
    )
    .expect("edit b");
    let m = root.join("m.json");
    let (code, stderr) = run_batch(&corpus, &out, Some(&st), 1, false, Some(&m));
    assert_eq!(code, Some(0), "warm run: {stderr}");
    let block = state_block(&m);
    assert_eq!(state_u64(&block, "files_skipped"), 1, "only a.cfg is unchanged");
    assert_eq!(state_u64(&block, "files_processed"), 1, "b.cfg must re-process");
    assert_eq!(
        std::fs::read(out.join("a.cfg.anon")).expect("a.anon"),
        a_before,
        "the unchanged file must not be rewritten"
    );
    assert_eq!(
        neighbor_token(&out, "b.cfg"),
        tok_before,
        "the edited file must keep the previously issued mapping"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deleted_file_mappings_survive_in_state() {
    let root = tmpdir("deleted");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("mk corpus");
    let b_text = "hostname bravo.example.com\nrouter bgp 65002\n neighbor 12.126.236.17 remote-as 701\n";
    std::fs::write(corpus.join("a.cfg"), "hostname alpha.example.com\n ip route 10.20.30.0 255.255.255.0 Null0\n")
        .expect("write a");
    std::fs::write(corpus.join("b.cfg"), b_text).expect("write b");

    let out = root.join("out");
    let st = root.join("st");
    let (code, stderr) = run_batch(&corpus, &out, Some(&st), 1, false, None);
    assert_eq!(code, Some(0), "session 1: {stderr}");
    let b_anon = std::fs::read(out.join("b.cfg.anon")).expect("b.anon");
    let journal_before = load_state(&st).journal.len();

    // Delete b.cfg. The warm run prunes its released output (the new
    // manifest no longer vouches for it) and drops its watermark, but
    // the identifier journal keeps every mapping ever issued.
    std::fs::remove_file(corpus.join("b.cfg")).expect("rm b");
    let (code, stderr) = run_batch(&corpus, &out, Some(&st), 1, false, None);
    assert_eq!(code, Some(0), "after delete: {stderr}");
    assert!(!out.join("b.cfg.anon").exists(), "pruned output must be gone");
    let state = load_state(&st);
    assert!(!state.files.contains_key("b.cfg"), "deleted file keeps no watermark");
    assert_eq!(
        state.journal.len(),
        journal_before,
        "the journal must retain the deleted file's mappings"
    );

    // Restore b.cfg with identical content: its output must come back
    // byte-identical — the mappings survived the deletion.
    std::fs::write(corpus.join("b.cfg"), b_text).expect("restore b");
    let (code, stderr) = run_batch(&corpus, &out, Some(&st), 1, false, None);
    assert_eq!(code, Some(0), "after restore: {stderr}");
    assert_eq!(
        std::fs::read(out.join("b.cfg.anon")).expect("b.anon"),
        b_anon,
        "a restored file must reproduce its session-1 output exactly"
    );
    let _ = std::fs::remove_dir_all(&root);
}

fn load_state(dir: &Path) -> AnonState {
    let path = dir.join("state.json");
    let text = std::fs::read_to_string(&path).expect("read state.json");
    AnonState::from_json_str(&path.display().to_string(), &text).expect("valid state")
}

// ---- the split-session property (library level) -----------------------

/// A deterministic mini-corpus from one seed: four configs exercising
/// the IPv4 trie, the IPv6 trie, ASN permutation, and token hashing.
fn corpus_from_seed(seed: u64) -> Vec<(String, String)> {
    (0..4u64)
        .map(|i| {
            let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i * 0x1234_5677);
            let a = ((s >> 32) as u32) | 0x0100_0000; // avoid 0.0.0.0/8
            let b = (s as u32) | 0x0100_0000;
            let asn = (s % 64000 + 1) as u16;
            let peer_asn = ((s >> 17) % 64000 + 1) as u16;
            let v6a = (s >> 8) & 0xffff;
            let v6b = s & 0xffff;
            let text = format!(
                "hostname r{i}.s{}.example.com\n\
                 router bgp {asn}\n \
                 neighbor {}.{}.{}.{} remote-as {peer_asn}\n\
                 interface Ethernet0\n \
                 ip address {}.{}.{}.{} 255.255.255.0\n\
                 ipv6 route 2001:db8:{v6a:x}::/48 2001:db8::{v6b:x}\n",
                s % 1000,
                a >> 24,
                (a >> 16) & 255,
                (a >> 8) & 255,
                a & 255,
                b >> 24,
                (b >> 16) & 255,
                (b >> 8) & 255,
                b & 255,
            );
            (format!("r{i}.cfg"), text)
        })
        .collect()
}

confanon_testkit::props! {
    cases = 256;

    /// Save → load → anonymize round-trips exactly: a corpus split at a
    /// seeded cut point and run as two sessions — serializing the state
    /// between them through actual JSON bytes — equals one continuous
    /// run, file for file, and leaves identical trie structure.
    fn split_sessions_equal_one_continuous_run(
        seed in confanon_testkit::props::any::<u64>(),
        cut_raw in confanon_testkit::props::any::<u16>(),
    ) {
        let corpus = corpus_from_seed(seed);
        let cut = (cut_raw as usize) % (corpus.len() + 1);
        let secret = seed.to_be_bytes().to_vec();

        // One continuous session.
        let mut cont = Anonymizer::new(AnonymizerConfig::new(secret.clone()));
        let cont_out: Vec<String> = corpus
            .iter()
            .map(|(_, t)| cont.anonymize_config(t).text)
            .collect();

        // Two sessions with a serialized state hand-off at `cut`.
        let mut s1 = Anonymizer::new(AnonymizerConfig::new(secret.clone()));
        let s1_out: Vec<String> = corpus[..cut]
            .iter()
            .map(|(_, t)| s1.anonymize_config(t).text)
            .collect();
        let fp = RunManifest::fingerprint(&secret);
        let state = AnonState::capture(&s1, fp.clone(), BTreeMap::new());

        // The hand-off goes through bytes, and those bytes are stable:
        // parse(to_bytes) re-serializes identically.
        let bytes = state.to_bytes();
        let text = String::from_utf8(bytes.clone()).expect("state is utf-8");
        let reloaded = AnonState::from_json_str("prop", &text).expect("state parses");
        assert_eq!(reloaded.to_bytes(), bytes, "seed {seed}: state bytes unstable");
        reloaded
            .check_owner("prop", &fp, &s1.perm_fingerprint())
            .expect("owner check");

        let mut s2 = Anonymizer::new(AnonymizerConfig::new(secret.clone()));
        reloaded.restore_into("prop", &mut s2).expect("replay");

        // Sticky mappings: re-anonymizing session 1's inputs through the
        // restored state mutates nothing and reproduces the outputs.
        for (i, (_, t)) in corpus[..cut].iter().enumerate() {
            assert_eq!(
                s2.anonymize_config(t).text,
                s1_out[i],
                "seed {seed} cut {cut}: session-1 file {i} not reproduced"
            );
        }
        // And the tail equals the continuous run exactly.
        for (i, (_, t)) in corpus[cut..].iter().enumerate() {
            assert_eq!(
                s2.anonymize_config(t).text,
                cont_out[cut + i],
                "seed {seed} cut {cut}: tail file {} diverged",
                cut + i
            );
        }
        // Final trie structure is identical to the continuous session's.
        assert_eq!(s2.trie_node_counts(), cont.trie_node_counts(), "seed {seed}");
        assert_eq!(s2.trie_digests(), cont.trie_digests(), "seed {seed} cut {cut}");
        assert_eq!(s2.total_stats(), cont.total_stats(), "seed {seed} cut {cut}");
    }
}

#[test]
fn trace_spans_the_warm_start_work() {
    // The state load, the journal begin and the journal replay are most
    // of a warm run's wall time, so each is a `phase` span of its own.
    let root = tmpdir("spans");
    let (small, full) = generated_split(&root);
    let out = root.join("out");
    let st = root.join("st");
    let (code, stderr) = run_batch(&small, &out, Some(&st), 1, false, None);
    assert_eq!(code, Some(0), "session 1: {stderr}");

    let traced = |state: Option<&Path>, out: &Path, trace: &Path| {
        let mut cmd = bin();
        cmd.args(["batch", "--secret", "incr-suite-secret", "--jobs", "1"]);
        if let Some(s) = state {
            cmd.arg("--state").arg(s);
        }
        cmd.arg("--trace").arg(trace).arg("--out-dir").arg(out).arg(&full);
        let run = cmd.output().expect("run batch");
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        phase_spans(trace)
    };
    let warm = traced(Some(&st), &out, &root.join("warm.trace.json"));
    for name in ["state-load", "journal-begin", "state-restore"] {
        assert_eq!(warm.get(name), Some(&1), "warm run spans {warm:?}");
    }
    let cold = traced(None, &root.join("out-cold"), &root.join("cold.trace.json"));
    assert_eq!(cold.get("journal-begin"), Some(&1), "cold run spans {cold:?}");
    assert!(
        !cold.keys().any(|k| k.starts_with("state-")),
        "a stateless run loads and restores nothing: {cold:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
