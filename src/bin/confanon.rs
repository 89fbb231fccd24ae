//! `confanon` — the command-line anonymizer.
//!
//! The workflow the paper's §7 clearinghouse envisions: a network owner
//! downloads the tool, anonymizes their configs locally under a secret
//! only they hold, audits the output, and uploads the result.
//!
//! ```text
//! confanon anonymize --secret <secret> [--compact] [--audit FILE] [--out-dir DIR] FILE...
//! confanon batch     [--jobs N] [--secret S] [--out-dir DIR] [--quarantine-dir DIR]
//!                    [--disable-rule NAMES] [--metrics FILE] [--trace FILE]
//!                    [--bench-json FILE] [--bench-durability FILE] [--resume]
//!                    [--decoys N] DIR
//! confanon chaos     [--seed S] [--count N] --out-dir DIR
//! confanon generate  [--networks N] [--routers M] [--seed S] --out-dir DIR
//! confanon validate  --pre-dir DIR --post-dir DIR
//! confanon scan      --record FILE.json FILE...
//! confanon metrics   [--deterministic] [--trace FILE] [FILE]
//! confanon audit     --risk --pre-dir DIR --post-dir DIR --secret <secret> [...]
//! confanon rules
//! ```
//!
//! ## Observability
//!
//! `batch --metrics FILE` writes a `confanon-metrics-v1` document with
//! two sections: `deterministic` (corpus accounting, aggregate
//! anonymization counters, per-rule fire counts, trie node counts,
//! input-shape histograms — byte-identical for a given corpus across
//! any `--jobs` value and across resumed vs. one-shot runs) and
//! `timing` (span aggregates, rewrite/gate/publish counters,
//! durability, wall-clock — excluded from that guarantee).
//! `batch --trace FILE` writes the same run's spans as Chrome
//! trace-event JSON (load in `chrome://tracing` or Perfetto).
//! `confanon metrics` validates such files and extracts the
//! deterministic section for diffing.
//!
//! ## Exit codes
//!
//! `batch` distinguishes its failure classes so automation can branch
//! without parsing stderr: `0` success (all outputs released), `1` I/O
//! failure, `2` usage error, `3` panic-contained file(s) (outputs
//! withheld, rest released), `4` leak-gated file(s) quarantined (takes
//! precedence over `3`), `5` run interrupted with the journal intact —
//! re-run with `--resume` to continue instead of starting over.
//!
//! ## Durability
//!
//! With `--out-dir`, every byte `batch` publishes goes through an
//! atomic durable write (staged temp file → fsync → rename → directory
//! fsync) and a write-ahead journal `run_manifest.json` in the output
//! directory: a file's digest is journaled *before* its bytes appear,
//! so a crash at any point leaves no torn or unaccounted-for output.
//! `CONFANON_CRASH_AFTER=N` aborts the process after the N-th durable
//! write (deterministic at any `--jobs`), which is how the crash/resume
//! property suite enumerates every crash point.

#![deny(rustdoc::broken_intra_doc_links)]

// Fail-closed at the CLI boundary too: no abort on input-derived data.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use confanon::confgen::{generate_dataset, DatasetSpec};
use confanon::core::{
    sanitize_bytes, write_atomic, AnonError, AnonState, AnonymizedConfig, Anonymizer,
    AnonymizerConfig, DurabilityStats, FileDiscovery, Publisher, RunManifest, StdFs, ALL_RULES,
    RUN_MANIFEST_NAME,
};
use confanon::core::state::{state_path, FileMark};
use confanon::iosparse::Config;
use confanon::obs::{
    chrome_trace_json, is_observability_artifact, metrics_doc, validate_metrics, validate_trace,
    Clock, ObsShard,
};
use confanon::validate::{compare_designs, compare_properties, network_properties};
use confanon_testkit::json::Json;

/// Everything released, nothing withheld.
const EXIT_OK: u8 = 0;
/// Reading an input or writing an output failed.
const EXIT_IO: u8 = 1;
/// Bad command line.
const EXIT_USAGE: u8 = 2;
/// One or more files panicked inside containment; their outputs were
/// withheld while the rest of the corpus was released.
const EXIT_PANIC_CONTAINED: u8 = 3;
/// The §6.1 gate quarantined one or more outputs with residual
/// identifiers. Takes precedence over [`EXIT_PANIC_CONTAINED`].
const EXIT_LEAK_GATED: u8 = 4;
/// A durable write failed after the run journal was safely on disk:
/// nothing published is torn and `--resume` can continue the run.
const EXIT_RESUMABLE: u8 = 5;
/// `confanon serve` could not bind its listen endpoint. Nothing was
/// served; no tenant state was touched.
const EXIT_BIND: u8 = 6;
/// `confanon.toml` (or the serve CLI override set) failed validation.
const EXIT_CONFIG: u8 = 7;
/// `--require-clean-state`: a tenant's persisted state was present but
/// unusable, and the operator asked for refusal instead of quarantine.
const EXIT_TENANT_STATE: u8 = 8;

/// Upper bound on `--jobs`. The pipeline clamps the worker count to the
/// corpus size anyway; a value beyond any plausible machine is a typo
/// (`--jobs 44` fat-fingered as `--jobs 444444`) and is rejected as a
/// usage error rather than silently spawning a thread army.
const MAX_JOBS: usize = 512;

/// Maps a pipeline error to the exit-code taxonomy above.
fn exit_for(e: &AnonError) -> u8 {
    match e {
        AnonError::Io { .. } => EXIT_IO,
        AnonError::InvalidInput { .. } => EXIT_USAGE,
        AnonError::PanicContained { .. } => EXIT_PANIC_CONTAINED,
        AnonError::LeakGated { .. } => EXIT_LEAK_GATED,
        AnonError::ResumableInterrupted { .. } => EXIT_RESUMABLE,
        AnonError::StateInvalid { .. } => EXIT_USAGE,
        AnonError::BindFailed { .. } => EXIT_BIND,
        AnonError::ConfigInvalid { .. } => EXIT_CONFIG,
        AnonError::TenantStateRefused { .. } => EXIT_TENANT_STATE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("anonymize") => cmd_anonymize(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("netchaos") => cmd_netchaos(&args[1..]),
        Some("rules") => cmd_rules(),
        _ => {
            eprintln!(
                "usage: confanon <anonymize|batch|chaos|generate|validate|scan|metrics|audit|serve|client|netchaos|rules> [options]\n\
                 \n\
                 anonymize --secret <secret> [--compact] [--audit FILE] [--out-dir DIR] FILE...\n\
                 \u{20}   Anonymize config files under one owner secret. With --out-dir,\n\
                 \u{20}   writes <name>.anon alongside a leak-audit summary; otherwise\n\
                 \u{20}   prints to stdout.\n\
                 batch [--jobs N] [--secret <secret>] [--out-dir DIR] [--quarantine-dir DIR]\n\
                 \u{20}     [--disable-rule NAME[,NAME...]] [--metrics FILE] [--trace FILE]\n\
                 \u{20}     [--bench-json FILE] [--bench-durability FILE] [--resume]\n\
                 \u{20}     [--state DIR] [--decoys N] DIR\n\
                 \u{20}   Anonymize every .cfg under DIR (recursively, one keyed state)\n\
                 \u{20}   using N discovery/rewrite workers. 0 = logical core count; values\n\
                 \u{20}   above the corpus size are clamped to one worker per file; values\n\
                 \u{20}   above 512 are rejected as a usage error. Output is byte-identical\n\
                 \u{20}   at any worker count. Every output is leak-scanned before release;\n\
                 \u{20}   outputs with residual identifiers go to the quarantine directory\n\
                 \u{20}   (never --out-dir) with a machine-readable leak_report.json.\n\
                 \u{20}   With --out-dir, writes are atomic+durable and journaled in\n\
                 \u{20}   run_manifest.json; --resume verifies prior outputs against the\n\
                 \u{20}   journal digests and re-processes only what is missing or torn.\n\
                 \u{20}   --metrics writes a confanon-metrics-v1 document (deterministic +\n\
                 \u{20}   timing sections); --trace writes Chrome trace-event JSON.\n\
                 \u{20}   --state DIR persists the full mapping state (confanon-state-v1)\n\
                 \u{20}   after publishing; a warm rerun skips watermark-unchanged files\n\
                 \u{20}   and keeps every previously issued mapping stable. Requires\n\
                 \u{20}   --out-dir; an invalid, foreign, or corrupt state refuses with\n\
                 \u{20}   exit 2.\n\
                 \u{20}   --decoys N injects N NetCloak-style synthetic chaff routers per\n\
                 \u{20}   network, appended after the real corpus (real outputs stay\n\
                 \u{20}   byte-identical) and flagged \"decoy\" in run_manifest.json.\n\
                 \u{20}   Exit codes: 0 ok, 1 I/O, 2 usage, 3 panic-contained, 4 leak-gated,\n\
                 \u{20}   5 interrupted-but-resumable (journal intact; re-run with --resume).\n\
                 chaos [--seed S] [--count N] --out-dir DIR\n\
                 \u{20}   Emit N chaos-mutated (hostile) config files for pipeline smoke\n\
                 \u{20}   tests; deterministic per seed.\n\
                 generate [--networks N] [--routers M] [--seed S] --out-dir DIR\n\
                 \u{20}   Emit a synthetic corpus (one directory per network).\n\
                 validate --pre-dir DIR --post-dir DIR\n\
                 \u{20}   Run both validation suites over matching file names.\n\
                 scan --record FILE.json FILE...\n\
                 \u{20}   Flag lines in anonymized files that still contain items from a\n\
                 \u{20}   leak record (JSON with asns/ips/words arrays).\n\
                 metrics [--deterministic] [--trace FILE] [--serve FILE] [FILE]\n\
                 \u{20}   Validate a metrics.json (or, with --trace, a trace file; with\n\
                 \u{20}   --serve, a confanon-serve-metrics-v1 stats frame).\n\
                 \u{20}   --deterministic prints only the deterministic section, for\n\
                 \u{20}   diffing two runs.\n\
                 audit --risk --pre-dir DIR --post-dir DIR --secret <secret>\n\
                 \u{20}     [--seed S] [--top-k K] [--known-pairs M] [--candidates N]\n\
                 \u{20}     [--disable-rule NAME[,NAME...]] [--decoys N] [--jobs N]\n\
                 \u{20}     [--report FILE]\n\
                 audit --check-report FILE\n\
                 \u{20}   Quantified risk–utility audit: runs a seeded de-anonymization\n\
                 \u{20}   red team (prefix-structure fingerprinting, degree-distribution\n\
                 \u{20}   matching, known-plaintext ASN recovery) against the released\n\
                 \u{20}   bytes in --post-dir (must hold a run_manifest.json), scores the\n\
                 \u{20}   fraction of routing-design facts preserved, and sweeps weakened\n\
                 \u{20}   variants (rule ablations, scrambled IPs, decoy chaff) into a\n\
                 \u{20}   tradeoff table. Writes a confanon-risk-v1 report (default\n\
                 \u{20}   <post-dir>/risk_report.json); byte-identical for a given corpus,\n\
                 \u{20}   secret, and seed at any --jobs value. --check-report validates\n\
                 \u{20}   an existing report.\n\
                 serve --config confanon.toml [--listen HOST:PORT | --socket PATH]\n\
                 \u{20}     [--port-file FILE] [--queue-depth N] [--request-timeout-ms MS]\n\
                 \u{20}     [--idle-timeout-ms MS] [--max-connections N]\n\
                 \u{20}     [--flush request|drain] [--require-clean-state]\n\
                 \u{20}   Multi-tenant anonymization daemon (CONFANON/1 protocol). Each\n\
                 \u{20}   [tenant.NAME] section holds its own secret + state_dir; tenants\n\
                 \u{20}   are isolated (bounded queues, per-request panic containment,\n\
                 \u{20}   per-tenant leak quarantine, per-tenant request quotas). Hostile\n\
                 \u{20}   peers are contained per connection: malformed frames get one\n\
                 \u{20}   classified ERROR, dribbled frames hit the read deadline, silent\n\
                 \u{20}   connections hit the idle timeout, and arrivals past the\n\
                 \u{20}   connection bound are shed with a BUSY retry-after hint. A tenant\n\
                 \u{20}   whose store fails permanently degrades (DEGRADED responses,\n\
                 \u{20}   flushing suspended) and self-heals via recovery probes, as does\n\
                 \u{20}   a state-quarantined tenant once its store reloads cleanly.\n\
                 \u{20}   SIGTERM or a SHUTDOWN frame drains: in-flight requests finish,\n\
                 \u{20}   every tenant state flushes atomically, exit 0. Serve exits:\n\
                 \u{20}   6 bind failed, 7 config invalid, 8 tenant state refused\n\
                 \u{20}   (--require-clean-state).\n\
                 client --endpoint HOST:PORT|unix:PATH <ping|stats|flush|shutdown|anon>\n\
                 \u{20}     [--tenant NAME] [--name FILE] [--retries N]\n\
                 \u{20}     [--backoff-base-ms MS] [--backoff-cap-ms MS] [--backoff-seed S]\n\
                 \u{20}     [FILE]\n\
                 \u{20}   Minimal CONFANON/1 test client: anon sends FILE (or stdin) and\n\
                 \u{20}   prints the anonymized payload; stats prints the metrics frame.\n\
                 \u{20}   Retries use seeded jittered exponential backoff that honors the\n\
                 \u{20}   server's retry-after-ms hint; retriable BUSY/TIMEOUT responses\n\
                 \u{20}   exit 75 after --retries. DEGRADED prints the payload (exit 0)\n\
                 \u{20}   with a durability warning on stderr.\n\
                 netchaos --upstream HOST:PORT [--seed S] [--profile hostile|lossless]\n\
                 \u{20}     [--port-file FILE]\n\
                 \u{20}   Seeded fault-injecting TCP proxy for serve-hardening tests:\n\
                 \u{20}   dribbles, tears, duplicates, garbles, and disconnects\n\
                 \u{20}   client->server traffic per the profile, deterministically per\n\
                 \u{20}   seed and connection index. SIGTERM stops it (exit 0).\n\
                 rules\n\
                 \u{20}   Print the 28 contextual rules."
            );
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Reads a config file tolerantly: any byte sequence is accepted, with
/// hostile content repaired (lossy UTF-8, control chars, oversized
/// lines) and the repairs reported on stderr.
fn read_config_lossy(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (text, tally) = sanitize_bytes(&bytes);
    if !tally.is_clean() {
        eprintln!(
            "note: {}: repaired hostile input ({} invalid UTF-8 sequence(s), \
             {} control char(s), {} oversized line(s) truncated)",
            path.display(),
            tally.invalid_utf8_replaced,
            tally.controls_replaced,
            tally.lines_truncated
        );
    }
    Ok(text)
}

/// Minimal option parser: `--key value` flags, bare words are positionals.
fn parse_opts(args: &[String]) -> (BTreeMap<String, String>, Vec<String>) {
    let mut opts = BTreeMap::new();
    let mut pos = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            // Boolean flags take no value when followed by another flag
            // or nothing.
            let takes_value = i + 1 < args.len() && !args[i + 1].starts_with("--");
            let boolean = matches!(
                key,
                "compact" | "resume" | "deterministic" | "require-clean-state" | "risk"
            );
            if takes_value && !boolean {
                opts.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                opts.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    (opts, pos)
}

fn cmd_anonymize(args: &[String]) -> ExitCode {
    let (opts, files) = parse_opts(args);
    let Some(secret) = opts.get("secret") else {
        eprintln!("anonymize: --secret is required (the owner's salt; keep it private)");
        return ExitCode::from(2);
    };
    if files.is_empty() {
        eprintln!("anonymize: no input files");
        return ExitCode::from(2);
    }
    let mut cfg = AnonymizerConfig::new(secret.clone().into_bytes());
    cfg.compact_regexps = opts.contains_key("compact");
    let mut anon = Anonymizer::new(cfg);
    let out_dir = opts.get("out-dir").map(PathBuf::from);
    if let Some(d) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("anonymize: cannot create {}: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }

    let mut outputs: Vec<(PathBuf, AnonymizedConfig)> = Vec::new();
    for f in &files {
        let path = Path::new(f);
        let text = match read_config_lossy(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("anonymize: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        outputs.push((path.to_path_buf(), anon.anonymize_config(&text)));
    }

    // Owner-side mapping audit (§5's colleague workflow). As sensitive
    // as the originals: written only where explicitly requested, and
    // atomically — a torn audit could silently lose mappings.
    let mut durability = DurabilityStats::default();
    if let Some(audit_path) = opts.get("audit") {
        let json = anon.mapping_audit().to_json().to_string_pretty();
        if let Err(e) = write_atomic(&StdFs, Path::new(audit_path), json.as_bytes(), &mut durability)
        {
            eprintln!("anonymize: {e}");
            return ExitCode::from(exit_for(&e));
        }
        eprintln!("mapping audit written to {audit_path} (KEEP PRIVATE)");
    }

    // §6.1 self-audit: scan our own output for recorded survivors.
    let joined: String = outputs
        .iter()
        .map(|(_, o)| o.text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let report = confanon::core::leak::LeakScanner::scan_excluding(
        anon.leak_record(),
        anon.emitted_exclusions(),
        &joined,
    );

    match out_dir {
        Some(dir) => {
            for (path, o) in &outputs {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().to_string())
                    .unwrap_or_else(|| "config".to_string());
                let target = dir.join(format!("{name}.anon"));
                if let Err(e) = write_atomic(&StdFs, &target, o.text.as_bytes(), &mut durability) {
                    eprintln!("anonymize: {e}");
                    return ExitCode::from(exit_for(&e));
                }
            }
            eprintln!(
                "anonymized {} file(s); {} line(s) flagged by self-audit{}",
                outputs.len(),
                report.leaks.len(),
                if report.is_clean() { "" } else { " — REVIEW REQUIRED" }
            );
        }
        None => {
            for (_, o) in &outputs {
                print!("{}", o.text);
            }
            if !report.is_clean() {
                eprintln!("warning: {} line(s) flagged by self-audit", report.leaks.len());
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        for l in report.leaks.iter().take(10) {
            eprintln!("  flagged [{}]: {}", l.token, l.line);
        }
        ExitCode::FAILURE
    }
}

/// Collects every `.cfg` file under `dir`, recursively, in sorted order
/// (determinism: the corpus order defines the shared mapping state).
fn collect_cfg_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        // Observability artifacts from a previous run (metrics.json,
        // *.trace.json) are run bookkeeping, never corpus input — skip
        // them even if someone renames one to end in .cfg.
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if name.as_deref().is_some_and(is_observability_artifact) {
            continue;
        }
        if path.is_dir() {
            collect_cfg_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "cfg") {
            out.push(path);
        }
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> ExitCode {
    // SIGTERM must not kill the run mid-publish: the group commit polls
    // the flag before its journal write and between byte writes, and
    // converts it into the resumable exit 5 after the in-flight atomic
    // rename completes.
    confanon::core::signals::install_term_handler();
    let (opts, pos) = parse_opts(args);
    let Some(dir) = pos.first().map(PathBuf::from) else {
        eprintln!("batch: a corpus directory is required");
        return ExitCode::from(EXIT_USAGE);
    };
    let jobs: usize = match opts.get("jobs").map(|j| j.parse()) {
        None => 0,
        Some(Ok(n)) if n <= MAX_JOBS => n,
        Some(Ok(n)) => {
            eprintln!(
                "batch: --jobs {n} exceeds the {MAX_JOBS}-worker cap \
                 (0 = logical core count; counts above the corpus size \
                 are clamped to one worker per file)"
            );
            return ExitCode::from(EXIT_USAGE);
        }
        Some(Err(_)) => {
            eprintln!("batch: --jobs must be a non-negative integer");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let secret = match opts.get("secret") {
        Some(s) => s.clone(),
        None => {
            eprintln!(
                "batch: no --secret given; using a well-known default — \
                 output is NOT anonymous, use only for benchmarking"
            );
            "smoke-bench-secret".to_string()
        }
    };
    // Retained separately: the run journal binds itself to the owner
    // secret via a domain-separated fingerprint.
    let secret_bytes = secret.into_bytes();
    let mut cfg = AnonymizerConfig::new(secret_bytes.clone());
    if let Some(spec) = opts.get("disable-rule") {
        for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match ALL_RULES.iter().find(|r| r.name == name) {
                Some(r) => cfg = cfg.without_rule(r.id),
                None => {
                    eprintln!("batch: unknown rule {name:?} (see `confanon rules`)");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        }
    }

    let decoys_per_network: usize = match opts.get("decoys").map(|d| d.parse()) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("batch: --decoys must be a non-negative integer");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let out_dir = opts.get("out-dir").map(PathBuf::from);
    // Quarantined bytes must never land in the output directory: a
    // release step that globs --out-dir would ship them.
    let quarantine_dir = opts.get("quarantine-dir").map(PathBuf::from).unwrap_or_else(|| {
        match &out_dir {
            Some(d) => {
                let mut s = d.as_os_str().to_os_string();
                s.push("-quarantine");
                PathBuf::from(s)
            }
            None => PathBuf::from("quarantine"),
        }
    });
    if out_dir.as_deref() == Some(quarantine_dir.as_path()) {
        eprintln!("batch: --quarantine-dir must differ from --out-dir");
        return ExitCode::from(EXIT_USAGE);
    }
    let resume = opts.contains_key("resume");
    if resume && out_dir.is_none() {
        eprintln!("batch: --resume requires --out-dir (the run journal lives there)");
        return ExitCode::from(EXIT_USAGE);
    }
    let state_dir = opts.get("state").map(PathBuf::from);
    if state_dir.is_some() && out_dir.is_none() {
        eprintln!(
            "batch: --state requires --out-dir (incremental runs verify \
             previously released outputs there)"
        );
        return ExitCode::from(EXIT_USAGE);
    }
    if let Some(d) = &state_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("batch: cannot create {}: {e}", d.display());
            return ExitCode::from(EXIT_IO);
        }
    }
    // Create the release directory up front: it must exist (possibly
    // empty) even when the gate withholds every file, and an unwritable
    // target should fail before any anonymization work is done.
    if let Some(d) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("batch: cannot create {}: {e}", d.display());
            return ExitCode::from(EXIT_IO);
        }
    }

    let mut paths = Vec::new();
    if let Err(e) = collect_cfg_files(&dir, &mut paths) {
        eprintln!("batch: {e}");
        return ExitCode::from(EXIT_IO);
    }
    if paths.is_empty() {
        eprintln!("batch: no .cfg files under {}", dir.display());
        return ExitCode::from(EXIT_IO);
    }
    // One clock spans the whole run: it is both the trace timeline and
    // the observability switch (a disabled clock strips every recording,
    // which the overhead benchmark below exploits).
    let clock = Clock::new();
    let mut bin_obs = ObsShard::new(clock);

    // Read and sanitize are separate phases: read is raw byte I/O,
    // sanitize is the hostile-input repair. Both re-run over the whole
    // corpus on --resume, so their counters stay resume-invariant.
    // Large files arrive as read-only memory maps on Linux (zero-copy
    // until sanitize), small ones as owned buffers; `FileBytes` derefs
    // to `&[u8]` either way.
    let mut raw: Vec<(String, confanon::core::FileBytes)> = Vec::with_capacity(paths.len());
    let t_read = bin_obs.span_start();
    for p in &paths {
        let rel = p.strip_prefix(&dir).unwrap_or(p).to_string_lossy().to_string();
        let t_file = bin_obs.span_start();
        match confanon::core::Fs::read_mapped(&StdFs, p) {
            Ok(bytes) => {
                bin_obs.span_end(&rel, "read", 0, t_file);
                bin_obs.count("phase.read.files", 1);
                bin_obs.count("phase.read.bytes", bytes.len() as u64);
                bin_obs.count(
                    if bytes.is_mapped() {
                        "phase.read.mapped_files"
                    } else {
                        "phase.read.buffered_files"
                    },
                    1,
                );
                raw.push((rel, bytes));
            }
            Err(e) => {
                eprintln!("batch: {}: {e}", p.display());
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    bin_obs.span_end("read", "phase", 0, t_read);

    let mut files: Vec<(String, String)> = Vec::with_capacity(raw.len());
    let t_sanitize = bin_obs.span_start();
    for (rel, bytes) in raw {
        let t_file = bin_obs.span_start();
        let (text, tally) = sanitize_bytes(&bytes);
        bin_obs.span_end(&rel, "sanitize", 0, t_file);
        bin_obs.count("phase.sanitize.files", 1);
        if !tally.is_clean() {
            eprintln!(
                "note: {rel}: repaired hostile input ({} invalid UTF-8 sequence(s), \
                 {} control char(s), {} oversized line(s) truncated)",
                tally.invalid_utf8_replaced, tally.controls_replaced, tally.lines_truncated
            );
            bin_obs.count("phase.sanitize.repaired_files", 1);
        }
        bin_obs.count("phase.sanitize.invalid_utf8_replaced", tally.invalid_utf8_replaced);
        bin_obs.count("phase.sanitize.controls_replaced", tally.controls_replaced);
        bin_obs.count("phase.sanitize.lines_truncated", tally.lines_truncated);
        files.push((rel, text));
    }
    bin_obs.span_end("sanitize", "phase", 0, t_sanitize);

    // NetCloak-style chaff: decoys append at the END of the corpus
    // vector, so every real file keeps the exact mappings (and released
    // bytes) of a decoy-free run. Injection is a pure function of
    // (secret, network names, N), which keeps --resume and --state
    // reruns corpus-stable.
    let decoy_names: BTreeSet<String> = if decoys_per_network > 0 {
        let injected =
            confanon::workflow::inject_decoys(&mut files, &secret_bytes, decoys_per_network);
        eprintln!(
            "decoys: injected {} synthetic chaff file(s) ({} requested per network)",
            injected.len(),
            decoys_per_network
        );
        bin_obs.count("phase.decoys.files", injected.len() as u64);
        injected
    } else {
        BTreeSet::new()
    };

    // Incremental state: load and validate any persisted anonymizer
    // state, compute each file's content watermark (digest of the
    // sanitized text — what the pipeline actually anonymizes), and
    // derive the set of files whose stored watermark still matches:
    // they skip the discovery scan entirely and, once their released
    // bytes digest-verify, the rewrite too. Only the --state paths read
    // the watermarks, so a stateless run computes none.
    let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let fingerprint = RunManifest::fingerprint(&secret_bytes);
    let watermarks: BTreeMap<String, String> = match &state_dir {
        Some(_) => files
            .iter()
            .map(|(n, t)| (n.clone(), RunManifest::digest_hex(t.as_bytes())))
            .collect(),
        None => BTreeMap::new(),
    };
    let mut loaded_state: Option<AnonState> = None;
    let mut state_file = String::new();
    if let Some(sdir) = &state_dir {
        state_file = state_path(sdir).display().to_string();
        match AnonState::load(&StdFs, sdir) {
            Ok(None) => {}
            Ok(Some(state)) => {
                // Owner binding is checked up front: a wrong secret (or
                // changed permutation parameters) must refuse before any
                // work, not fork the mapping history.
                let expect_perms = Anonymizer::new(cfg.clone()).perm_fingerprint();
                if let Err(e) = state.check_owner(&state_file, &fingerprint, &expect_perms) {
                    eprintln!("batch: {e}");
                    return ExitCode::from(exit_for(&e));
                }
                loaded_state = Some(state);
            }
            Err(e) => {
                eprintln!("batch: {e}");
                return ExitCode::from(exit_for(&e));
            }
        }
    }
    let mut unchanged: BTreeSet<String> = BTreeSet::new();
    let mut prewarmed: BTreeMap<String, FileDiscovery> = BTreeMap::new();
    if let Some(state) = &loaded_state {
        for (name, mark) in &state.files {
            if watermarks.get(name).is_some_and(|w| *w == mark.watermark) {
                unchanged.insert(name.clone());
                prewarmed.insert(
                    name.clone(),
                    FileDiscovery {
                        stats: mark.stats.clone(),
                        prefilter_fast: mark.prefilter_fast,
                        prefilter_slow: mark.prefilter_slow,
                    },
                );
            }
        }
        eprintln!(
            "state: loaded {state_file} ({} mapped identifier(s)); \
             {} of {} file(s) unchanged",
            state.journal.len(),
            unchanged.len(),
            files.len()
        );
    }

    // With an output directory, the run is journaled: a complete
    // all-pending manifest is durably on disk before any anonymization
    // work. --resume re-verifies a prior journal's claims to build the
    // skip set; a warm --state run instead carries forward released
    // outputs of watermark-unchanged files (digest-verified) and prunes
    // whatever the new corpus no longer vouches for.
    let fs = StdFs;
    let mut skip = BTreeSet::new();
    let mut publisher = match &out_dir {
        Some(dir) => {
            let result = if resume {
                Publisher::resume(&fs, dir, &secret_bytes, &names).map(|(p, verified)| {
                    skip = verified;
                    p
                })
            } else if state_dir.is_some() {
                Publisher::begin_incremental(&fs, dir, &secret_bytes, &names, &unchanged).map(
                    |(p, verified)| {
                        skip = verified;
                        p
                    },
                )
            } else {
                Publisher::begin(&fs, dir, &secret_bytes, &names)
            };
            match result {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("batch: {e}");
                    return ExitCode::from(exit_for(&e));
                }
            }
        }
        None => None,
    };
    // Every Publisher constructor (begin, resume, begin_incremental)
    // builds or rebuilds the manifest from the name list alone, so the
    // decoy provenance flags must be re-stamped on each run.
    if let Some(p) = &mut publisher {
        if let Err(e) = p.mark_decoys(&decoy_names) {
            eprintln!("batch: {e}");
            return ExitCode::from(exit_for(&e));
        }
    }

    let start = std::time::Instant::now();
    let mut restored_nodes = (0u64, 0u64);
    let mut run = match &loaded_state {
        Some(state) => {
            match confanon::workflow::anonymize_corpus_gated_stateful(
                &files,
                cfg.clone(),
                jobs,
                &skip,
                clock,
                confanon::workflow::WarmStart {
                    state,
                    state_file: &state_file,
                    prewarmed: &prewarmed,
                },
            ) {
                Ok((run, restored)) => {
                    restored_nodes = restored;
                    run
                }
                Err(e) => {
                    eprintln!("batch: {e}");
                    return ExitCode::from(exit_for(&e));
                }
            }
        }
        None => confanon::workflow::anonymize_corpus_gated_clocked(
            &files,
            cfg.clone(),
            jobs,
            &skip,
            clock,
        ),
    };
    let elapsed = start.elapsed();

    // The gate report (and any withheld bytes) go to the quarantine
    // directory whenever there is something to report or the caller
    // asked for the directory explicitly.
    let gate_tripped = !run.quarantined.is_empty() || !run.failures.is_empty();
    let qdir_opt = (gate_tripped || opts.contains_key("quarantine-dir"))
        .then_some(quarantine_dir.as_path());
    let mut durability = DurabilityStats::default();
    let t_publish = bin_obs.span_start();
    match &mut publisher {
        Some(p) => {
            // Journal-first publishing: one manifest write records every
            // verdict, then released outputs in corpus order, then
            // quarantined bytes and the report.
            if let Err(e) = confanon::workflow::publish_gated_run(p, &run, qdir_opt) {
                // The begin/resume journal write succeeded, so a later
                // I/O failure leaves a resumable run on disk.
                let e = match e {
                    AnonError::Io { path, message } if p.manifest_durable() => {
                        AnonError::ResumableInterrupted { path, message }
                    }
                    other => other,
                };
                eprintln!("batch: {e}");
                return ExitCode::from(exit_for(&e));
            }
        }
        None => {
            // No journal without --out-dir, but quarantine artifacts
            // still go through the atomic path: a torn leak report is
            // as misleading as a torn output.
            if let Some(qdir) = qdir_opt {
                for q in &run.quarantined {
                    let target = qdir.join(format!("{}.anon", q.output.name));
                    if let Err(e) =
                        write_atomic(&StdFs, &target, q.output.text.as_bytes(), &mut durability)
                    {
                        eprintln!("batch: {e}");
                        return ExitCode::from(exit_for(&e));
                    }
                }
                let report_path = qdir.join("leak_report.json");
                let json = run.leak_report_json().to_string_pretty();
                if let Err(e) = write_atomic(&StdFs, &report_path, json.as_bytes(), &mut durability)
                {
                    eprintln!("batch: {e}");
                    return ExitCode::from(exit_for(&e));
                }
            }
        }
    }
    if qdir_opt.is_some() {
        eprintln!(
            "leak report written to {}",
            quarantine_dir.join("leak_report.json").display()
        );
    }
    // Persist the anonymizer state LAST: outputs and the manifest are
    // already durable, so a crash before this write leaves a resumable
    // run whose warm rerun replays back to the identical mapping state.
    if let Some(sdir) = &state_dir {
        let marks: BTreeMap<String, FileMark> = run
            .discoveries
            .iter()
            .filter_map(|(name, d)| {
                watermarks.get(name).map(|w| {
                    (
                        name.clone(),
                        FileMark {
                            watermark: w.clone(),
                            stats: d.stats.clone(),
                            prefilter_fast: d.prefilter_fast,
                            prefilter_slow: d.prefilter_slow,
                        },
                    )
                })
            })
            .collect();
        let state = AnonState::capture(&run.anonymizer, fingerprint.clone(), marks);
        let target = state_path(sdir);
        let result = match &mut publisher {
            Some(p) => p.write_report(&target, &state.to_bytes()),
            None => write_atomic(&StdFs, &target, &state.to_bytes(), &mut durability),
        };
        if let Err(e) = result {
            let e = match e {
                AnonError::Io { path, message }
                    if publisher.as_ref().is_some_and(|p| p.manifest_durable()) =>
                {
                    AnonError::ResumableInterrupted { path, message }
                }
                other => other,
            };
            eprintln!("batch: {e}");
            return ExitCode::from(exit_for(&e));
        }
        eprintln!("state written to {}", target.display());
    }
    if let Some(p) = publisher {
        let (_manifest, stats) = p.finish();
        durability.merge(&stats);
    }
    bin_obs.span_end("publish", "phase", 0, t_publish);
    bin_obs.count("phase.publish.released", run.clean.len() as u64);
    bin_obs.count("phase.publish.quarantined", run.quarantined.len() as u64);
    // Fold the binary-side phases (read, sanitize, publish) into the
    // run's shard so the metrics and trace cover the whole pipeline.
    run.obs.merge(&bin_obs);

    let words = run.totals.words_total;
    let secs = elapsed.as_secs_f64().max(1e-9);
    let tokens_per_sec = words as f64 / secs;
    eprintln!(
        "released {} file(s), {} skipped (resume-verified), quarantined {} ({} residual hit(s)), \
         {} panic-contained ({} line(s), {} token(s), {} job(s), {:.3}s — {:.0} tokens/sec)",
        run.clean.len(),
        run.skipped.len(),
        run.quarantined.len(),
        run.leak_count(),
        run.failures.len(),
        run.totals.lines_total,
        words,
        run.jobs,
        secs,
        tokens_per_sec,
    );
    eprintln!(
        "durability: {} atomic write(s), {} fsync(s), {} transient retry(ies)",
        durability.atomic_writes, durability.fsyncs, durability.transient_retries
    );
    for f in run.failures.iter().take(10) {
        eprintln!("  contained: {f}");
    }
    let mut detail_lines = 0usize;
    for q in &run.quarantined {
        if detail_lines >= 20 {
            eprintln!("  (further quarantine detail in leak_report.json)");
            break;
        }
        for l in q.report.leaks.iter().take(5) {
            eprintln!("  quarantined {} [{}]: {}", q.output.name, l.token, l.line);
            detail_lines += 1;
        }
    }

    if let Some(metrics_path) = opts.get("metrics") {
        let mut timing = run
            .metrics_timing_json()
            .with("durability", durability.to_json())
            .with("elapsed_ns", elapsed.as_nanos() as f64);
        if state_dir.is_some() {
            // Timing section: skip counts depend on what state was on
            // disk, not on the corpus alone, so they must not perturb
            // deterministic-metrics equivalence between warm and cold.
            timing = timing.with(
                "state",
                Json::obj()
                    .with("loaded", loaded_state.is_some())
                    .with("created", true)
                    .with("files_skipped", prewarmed.len() as u64)
                    .with("files_processed", (files.len() - prewarmed.len()) as u64)
                    .with("trie4_nodes_restored", restored_nodes.0)
                    .with("trie6_nodes_restored", restored_nodes.1),
            );
        }
        let doc = metrics_doc(run.metrics_deterministic_json(), timing);
        let mut report_stats = DurabilityStats::default();
        if let Err(e) = write_atomic(
            &StdFs,
            Path::new(metrics_path),
            doc.to_string_pretty().as_bytes(),
            &mut report_stats,
        ) {
            eprintln!("batch: {e}");
            return ExitCode::from(exit_for(&e));
        }
        eprintln!("metrics written to {metrics_path}");
    }

    if let Some(trace_path) = opts.get("trace") {
        let worker_names: Vec<String> = (1..=run.jobs).map(|w| format!("worker-{w}")).collect();
        let mut lanes: Vec<(u32, &str)> = vec![(0, "pipeline")];
        lanes.extend(
            worker_names
                .iter()
                .enumerate()
                .map(|(i, n)| (i as u32 + 1, n.as_str())),
        );
        let doc = chrome_trace_json(run.obs.spans(), &lanes);
        let mut report_stats = DurabilityStats::default();
        if let Err(e) = write_atomic(
            &StdFs,
            Path::new(trace_path),
            doc.to_string_pretty().as_bytes(),
            &mut report_stats,
        ) {
            eprintln!("batch: {e}");
            return ExitCode::from(exit_for(&e));
        }
        eprintln!("trace written to {trace_path}");
    }

    if let Some(json_path) = opts.get("bench-json") {
        // The headline the CI throughput bar gates on is min-of-5: the
        // real (published) run above plus four in-memory re-runs with
        // the same instrumented clock. A single-shot wall time on a
        // busy shared-core box swings ±20% (and worse under CPU
        // steal); min-of-N is the standard way to recover the
        // workload's actual cost from noisy samples.
        let mut best_secs = elapsed.as_secs_f64();
        for _ in 0..4 {
            let t = std::time::Instant::now();
            let rerun = confanon::workflow::anonymize_corpus_gated_clocked(
                &files,
                cfg.clone(),
                jobs,
                &skip,
                Clock::new(),
            );
            std::hint::black_box(rerun.clean.len());
            best_secs = best_secs.min(t.elapsed().as_secs_f64());
        }
        let json = Json::obj()
            .with("suite", "pipeline")
            .with("files", (run.clean.len() + run.quarantined.len()) as u64)
            .with("lines", run.totals.lines_total)
            .with("words", words)
            .with("jobs", run.jobs as u64)
            .with("timing", "min-of-5")
            .with("elapsed_ns", best_secs * 1e9)
            .with("tokens_per_sec", words as f64 / best_secs.max(1e-9))
            .with("durability", durability.to_json())
            .with("observability", observability_overhead_json(&files, &cfg, jobs))
            .with("discovery", discovery_bench_json(&files, &cfg))
            .with("rewrite", rewrite_bench_json(&files, &cfg, jobs));
        let mut report_stats = DurabilityStats::default();
        if let Err(e) = write_atomic(
            &StdFs,
            Path::new(json_path),
            json.to_string_pretty().as_bytes(),
            &mut report_stats,
        ) {
            eprintln!("batch: {e}");
            return ExitCode::from(exit_for(&e));
        }
        eprintln!("throughput written to {json_path}");
    }

    if let Some(json_path) = opts.get("bench-durability") {
        match durability_bench_json(&run, tokens_per_sec, &durability) {
            Ok(json) => {
                let mut report_stats = DurabilityStats::default();
                if let Err(e) = write_atomic(
                    &StdFs,
                    Path::new(json_path),
                    json.to_string_pretty().as_bytes(),
                    &mut report_stats,
                ) {
                    eprintln!("batch: {e}");
                    return ExitCode::from(exit_for(&e));
                }
                eprintln!("durability bench written to {json_path}");
            }
            Err(e) => {
                eprintln!("batch: durability bench: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }

    if !run.quarantined.is_empty() {
        ExitCode::from(EXIT_LEAK_GATED)
    } else if !run.failures.is_empty() {
        ExitCode::from(EXIT_PANIC_CONTAINED)
    } else {
        ExitCode::from(EXIT_OK)
    }
}

/// Times the gated pipeline with observability on ([`Clock::new`])
/// versus stripped ([`Clock::disabled`] — every recording a no-op),
/// min-of-3 each to damp scheduler noise. The ratio quantifies what the
/// always-on instrumentation costs; the metrics-invariant suite holds
/// it under 5% on the smoke corpus.
fn observability_overhead_json(
    files: &[(String, String)],
    cfg: &AnonymizerConfig,
    jobs: usize,
) -> Json {
    let time_with = |clock: Clock| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let run = confanon::workflow::anonymize_corpus_gated_clocked(
                files,
                cfg.clone(),
                jobs,
                &BTreeSet::new(),
                clock,
            );
            std::hint::black_box(run.clean.len());
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let instrumented = time_with(Clock::new());
    let stripped = time_with(Clock::disabled());
    Json::obj()
        .with("instrumented_ns", instrumented * 1e9)
        .with("stripped_ns", stripped * 1e9)
        .with("overhead_ratio", instrumented / stripped.max(1e-9))
}

/// Worker count the discovery benchmark pins, matching the acceptance
/// target ("sharded ≥1.5× sequential at `--jobs 4`").
const DISCOVERY_BENCH_JOBS: usize = 4;

/// Benchmarks the discovery pass in isolation: the sharded scan versus
/// the sequential one, and the rule-engine prefilter on versus off
/// (min-of-3 each, observability stripped so the clock measures only the
/// pass itself). The corpus is tiled up to at least 64 files so worker
/// spawn and merge/replay overhead cannot dominate a small smoke corpus.
/// Also cross-checks — on this very corpus — that the prefilter changes
/// no per-rule fire count; that boolean is recorded alongside the
/// timings, so a regression shows up in `BENCH_pipeline.json`, not just
/// in the test suite.
fn discovery_bench_json(files: &[(String, String)], cfg: &AnonymizerConfig) -> Json {
    use confanon::core::{BatchInput, BatchPipeline};

    let mut inputs: Vec<BatchInput> = Vec::new();
    let mut tile = 0usize;
    while inputs.len() < 64 && !files.is_empty() {
        for (name, text) in files {
            inputs.push(BatchInput {
                name: format!("tile{tile}/{name}"),
                text: text.clone(),
            });
        }
        tile += 1;
    }
    let bytes: u64 = inputs.iter().map(|f| f.text.len() as u64).sum();

    let time_discover = |sequential: bool, prefilter: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let mut c = cfg.clone();
            c.disable_prefilter = !prefilter;
            let mut p = BatchPipeline::new(c, DISCOVERY_BENCH_JOBS)
                .with_clock(Clock::disabled())
                .with_sequential_discovery(sequential);
            let t = std::time::Instant::now();
            let failures = p.discover_corpus(&inputs);
            std::hint::black_box(failures.len());
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let sequential = time_discover(true, true);
    let sharded = time_discover(false, true);
    let prefilter_off = time_discover(true, false);

    let fires = |prefilter: bool| {
        let mut c = cfg.clone();
        c.disable_prefilter = !prefilter;
        let mut p = BatchPipeline::new(c, DISCOVERY_BENCH_JOBS).with_clock(Clock::disabled());
        p.discover_corpus(&inputs);
        p.anonymizer().total_stats().rule_fires_complete()
    };
    let rule_fires_identical = fires(true) == fires(false);

    Json::obj()
        .with("files", inputs.len() as u64)
        .with("bytes", bytes)
        .with("jobs", DISCOVERY_BENCH_JOBS as u64)
        // Logical cores actually available: below 2, the sharded arm can
        // only win by its deferred per-occurrence trie/record work, not
        // by parallel scanning — interpret `sharded_speedup` accordingly.
        .with(
            "parallelism",
            std::thread::available_parallelism().map_or(1, usize::from) as u64,
        )
        .with("sequential_ns", sequential * 1e9)
        .with("sharded_ns", sharded * 1e9)
        .with("sharded_speedup", sequential / sharded.max(1e-9))
        .with(
            "prefilter",
            Json::obj()
                .with("enabled_ns", sequential * 1e9)
                .with("disabled_ns", prefilter_off * 1e9)
                .with("speedup", prefilter_off / sequential.max(1e-9))
                .with("rule_fires_identical", rule_fires_identical),
        )
}

/// Benchmarks the borrow-or-own rewrite against the retained legacy
/// clone-always emit path (min-of-3 each, observability stripped so the
/// clock measures only the pass), and cross-checks — on this very
/// corpus — that disabling zero-copy changes neither a single output
/// byte nor any per-rule fire count. Those two booleans are recorded
/// alongside the timings, so an equivalence regression shows up in
/// `BENCH_pipeline.json`, not just in the test suite. The borrowed-line
/// fraction and the allocations the `Cow` path avoided come from the
/// fastest zero-copy run itself.
fn rewrite_bench_json(files: &[(String, String)], cfg: &AnonymizerConfig, jobs: usize) -> Json {
    use confanon::core::RewriteStats;
    use confanon::workflow::GatedCorpusRun;

    let run_once = |zero_copy: bool| -> (f64, GatedCorpusRun) {
        let mut c = cfg.clone();
        c.disable_zero_copy = !zero_copy;
        let t = std::time::Instant::now();
        let run = confanon::workflow::anonymize_corpus_gated_clocked(
            files,
            c,
            jobs,
            &BTreeSet::new(),
            Clock::disabled(),
        );
        (t.elapsed().as_secs_f64(), run)
    };
    let time_with = |zero_copy: bool| -> (f64, GatedCorpusRun) {
        let (mut best, mut run) = run_once(zero_copy);
        for _ in 0..2 {
            let (secs, rerun) = run_once(zero_copy);
            if secs < best {
                best = secs;
                run = rerun;
            }
        }
        (best, run)
    };
    let (zc_secs, zc_run) = time_with(true);
    let (legacy_secs, legacy_run) = time_with(false);

    fn texts(run: &GatedCorpusRun) -> BTreeMap<&str, &str> {
        run.clean
            .iter()
            .map(|o| (o.name.as_str(), o.text.as_str()))
            .chain(
                run.quarantined
                    .iter()
                    .map(|q| (q.output.name.as_str(), q.output.text.as_str())),
            )
            .collect()
    }
    let outputs_identical = texts(&zc_run) == texts(&legacy_run);
    let rule_fires_identical =
        zc_run.totals.rule_fires_complete() == legacy_run.totals.rule_fires_complete();

    let mut rewrite = RewriteStats::default();
    for o in zc_run
        .clean
        .iter()
        .chain(zc_run.quarantined.iter().map(|q| &q.output))
    {
        rewrite.absorb(&o.rewrite);
    }

    let words = zc_run.totals.words_total as f64;
    Json::obj()
        .with("jobs", jobs as u64)
        .with("zero_copy_ns", zc_secs * 1e9)
        .with("legacy_ns", legacy_secs * 1e9)
        .with("tokens_per_sec_zero_copy", words / zc_secs.max(1e-9))
        .with("tokens_per_sec_legacy", words / legacy_secs.max(1e-9))
        .with("speedup", legacy_secs / zc_secs.max(1e-9))
        .with("outputs_identical", outputs_identical)
        .with("rule_fires_identical", rule_fires_identical)
        .with("rewrite_stats", rewrite.to_json())
}

/// Times re-publishing the run's released outputs through the atomic
/// durable path versus plain buffered writes (both into throwaway
/// scratch directories), quantifying what the journal and fsyncs cost
/// relative to `BENCH_pipeline.json`'s anonymization throughput.
fn durability_bench_json(
    run: &confanon::workflow::GatedCorpusRun,
    pipeline_tokens_per_sec: f64,
    run_durability: &DurabilityStats,
) -> Result<confanon_testkit::json::Json, String> {
    let scratch = std::env::temp_dir().join(format!(
        "confanon-bench-durability-{}",
        std::process::id()
    ));
    let durable_dir = scratch.join("durable");
    let plain_dir = scratch.join("plain");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&plain_dir).map_err(|e| format!("{}: {e}", plain_dir.display()))?;

    // Flatten names: the scratch layout does not need the corpus tree.
    let flat = |name: &str| format!("{}.anon", name.replace(['/', '\\'], "_"));
    let mut bytes_total = 0u64;
    let mut bench_stats = DurabilityStats::default();
    let t0 = std::time::Instant::now();
    for o in &run.clean {
        write_atomic(
            &StdFs,
            &durable_dir.join(flat(&o.name)),
            o.text.as_bytes(),
            &mut bench_stats,
        )
        .map_err(|e| e.to_string())?;
        bytes_total += o.text.len() as u64;
    }
    let durable_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let t1 = std::time::Instant::now();
    for o in &run.clean {
        let target = plain_dir.join(flat(&o.name));
        std::fs::write(&target, o.text.as_bytes())
            .map_err(|e| format!("{}: {e}", target.display()))?;
    }
    let plain_secs = t1.elapsed().as_secs_f64().max(1e-9);
    let _ = std::fs::remove_dir_all(&scratch);

    let files = run.clean.len() as u64;
    Ok(confanon_testkit::json::Json::obj()
        .with("suite", "durability")
        .with("files", files)
        .with("bytes", bytes_total)
        .with("durable_elapsed_ns", durable_secs * 1e9)
        .with("plain_elapsed_ns", plain_secs * 1e9)
        .with("durable_files_per_sec", files as f64 / durable_secs)
        .with("plain_files_per_sec", files as f64 / plain_secs)
        .with("overhead_ratio", durable_secs / plain_secs)
        .with("bench_durability", bench_stats.to_json())
        .with("run_durability", run_durability.to_json())
        .with("pipeline_tokens_per_sec", pipeline_tokens_per_sec))
}

fn cmd_chaos(args: &[String]) -> ExitCode {
    let (opts, _) = parse_opts(args);
    let Some(out_dir) = opts.get("out-dir").map(PathBuf::from) else {
        eprintln!("chaos: --out-dir is required");
        return ExitCode::from(EXIT_USAGE);
    };
    let seed: u64 = opts.get("seed").and_then(|s| s.parse().ok()).unwrap_or(2004);
    let count: usize = opts.get("count").and_then(|s| s.parse().ok()).unwrap_or(64);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("chaos: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(EXIT_IO);
    }

    let mut mutator = confanon_testkit::chaos::ChaosMutator::new(seed);
    let mut durability = DurabilityStats::default();
    let mut written = 0usize;
    let mut round = 0u64;
    while written < count {
        // Each round draws a fresh synthetic dataset; rounds advance the
        // generator seed deterministically so any count is reachable.
        let spec = DatasetSpec {
            seed: seed.wrapping_add(round),
            networks: 2,
            mean_routers: 8,
            backbone_fraction: 0.35,
        };
        round += 1;
        for net in &generate_dataset(&spec).networks {
            for r in &net.routers {
                if written == count {
                    break;
                }
                let mutated = mutator.mutate(r.config.as_bytes());
                let target = out_dir.join(format!("chaos-{written:03}.cfg"));
                if let Err(e) = write_atomic(&StdFs, &target, &mutated.bytes, &mut durability) {
                    eprintln!("chaos: {e}");
                    return ExitCode::from(exit_for(&e));
                }
                written += 1;
            }
        }
    }
    eprintln!(
        "wrote {written} chaos-mutated config(s) (seed {seed}) into {}",
        out_dir.display()
    );
    ExitCode::from(EXIT_OK)
}

fn cmd_generate(args: &[String]) -> ExitCode {
    let (opts, _) = parse_opts(args);
    let Some(out_dir) = opts.get("out-dir").map(PathBuf::from) else {
        eprintln!("generate: --out-dir is required");
        return ExitCode::from(2);
    };
    let spec = DatasetSpec {
        seed: opts.get("seed").and_then(|s| s.parse().ok()).unwrap_or(2004),
        networks: opts.get("networks").and_then(|s| s.parse().ok()).unwrap_or(4),
        mean_routers: opts.get("routers").and_then(|s| s.parse().ok()).unwrap_or(8),
        backbone_fraction: 0.35,
    };
    let ds = generate_dataset(&spec);
    for net in &ds.networks {
        let dir = out_dir.join(&net.name);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("generate: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for r in &net.routers {
            let file = dir.join(format!("{}.cfg", r.hostname));
            if let Err(e) = std::fs::write(&file, &r.config) {
                eprintln!("generate: {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "generated {} network(s), {} router(s), {} line(s) into {}",
        ds.networks.len(),
        ds.total_routers(),
        ds.total_lines(),
        out_dir.display()
    );
    ExitCode::SUCCESS
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let (opts, _) = parse_opts(args);
    let (Some(pre), Some(post)) = (opts.get("pre-dir"), opts.get("post-dir")) else {
        eprintln!("validate: --pre-dir and --post-dir are required");
        return ExitCode::from(2);
    };
    let load = |dir: &str| -> Result<Vec<(String, Config)>, String> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            // The batch run journal and observability artifacts live
            // beside the released files; they are bookkeeping, not
            // configs to validate.
            .filter(|p| p.file_name().is_none_or(|n| n != RUN_MANIFEST_NAME))
            .filter(|p| {
                p.file_name()
                    .is_none_or(|n| !is_observability_artifact(&n.to_string_lossy()))
            })
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let name = p.file_name().map(|n| n.to_string_lossy().to_string());
                let name = name.unwrap_or_default().replace(".anon", "");
                std::fs::read_to_string(&p)
                    .map(|t| (name, Config::parse(&t)))
                    .map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    };
    let (pre_cfgs, post_cfgs) = match (load(pre), load(post)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pre_names: Vec<&String> = pre_cfgs.iter().map(|(n, _)| n).collect();
    let post_names: Vec<&String> = post_cfgs.iter().map(|(n, _)| n).collect();
    if pre_names != post_names {
        eprintln!("validate: file sets differ: {pre_names:?} vs {post_names:?}");
        return ExitCode::FAILURE;
    }
    let pre_c: Vec<Config> = pre_cfgs.into_iter().map(|(_, c)| c).collect();
    let post_c: Vec<Config> = post_cfgs.into_iter().map(|(_, c)| c).collect();

    let s1 = compare_properties(&network_properties(&pre_c), &network_properties(&post_c));
    let s2 = compare_designs(&pre_c, &post_c);
    println!(
        "suite1: {}{}",
        if s1.passed() { "PASS" } else { "FAIL" },
        if s1.passed() {
            String::new()
        } else {
            format!(" (differs: {:?})", s1.differing_fields)
        }
    );
    println!(
        "suite2: {}{}",
        if s2.passed() { "PASS" } else { "FAIL" },
        if s2.passed() {
            String::new()
        } else {
            format!(" (routers: {:?})", s2.differing_routers)
        }
    );
    if s1.passed() && s2.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_scan(args: &[String]) -> ExitCode {
    let (opts, files) = parse_opts(args);
    let Some(record_path) = opts.get("record") else {
        eprintln!("scan: --record FILE.json is required");
        return ExitCode::from(2);
    };
    let record: confanon::core::leak::LeakRecord = match std::fs::read_to_string(record_path)
        .map_err(|e| e.to_string())
        .and_then(|t| confanon::core::leak::LeakRecord::from_json_str(&t))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scan: {record_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scanner = confanon::core::leak::LeakScanner::new(&record);
    let mut total = 0usize;
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("scan: {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = scanner.scan(&text);
        for l in &report.leaks {
            println!("{f}:{}: [{}] {}", l.line_no + 1, l.token, l.line);
        }
        total += report.leaks.len();
    }
    eprintln!("{total} line(s) flagged across {} file(s)", files.len());
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `confanon metrics`: validate observability artifacts from the shell.
///
/// * `confanon metrics FILE` — parse and shape-check a metrics.json.
/// * `confanon metrics --deterministic FILE` — print only the
///   deterministic section (pretty), so two runs can be `diff`ed.
/// * `confanon metrics --trace FILE` — parse and shape-check a Chrome
///   trace file instead.
fn cmd_metrics(args: &[String]) -> ExitCode {
    let (opts, files) = parse_opts(args);

    if let Some(trace_path) = opts.get("trace") {
        let text = match std::fs::read_to_string(trace_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("metrics: {trace_path}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        return match Json::parse(&text).map_err(|e| e.to_string()).and_then(|doc| {
            validate_trace(&doc)?;
            Ok(doc)
        }) {
            Ok(doc) => {
                let events = doc
                    .get("traceEvents")
                    .and_then(Json::as_array)
                    .map_or(0, |a| a.len());
                eprintln!("{trace_path}: valid trace ({events} event(s))");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("metrics: {trace_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(frame_path) = opts.get("serve") {
        let text = match std::fs::read_to_string(frame_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("metrics: {frame_path}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        return match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| {
                confanon::obs::validate_serve_metrics(&doc)?;
                Ok(doc)
            }) {
            Ok(doc) => {
                let tenants = match doc.get("tenants") {
                    Some(Json::Obj(members)) => members.len(),
                    _ => 0,
                };
                eprintln!(
                    "{frame_path}: valid {} ({tenants} tenant(s))",
                    confanon::obs::SERVE_METRICS_SCHEMA
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("metrics: {frame_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(path) = files.first() else {
        eprintln!("metrics: a metrics.json file (or --trace/--serve FILE) is required");
        return ExitCode::from(EXIT_USAGE);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("metrics: {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("metrics: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_metrics(&doc) {
        eprintln!("metrics: {path}: {e}");
        return ExitCode::FAILURE;
    }
    if opts.contains_key("deterministic") {
        match doc.get("deterministic") {
            Some(section) => println!("{}", section.to_string_pretty()),
            None => {
                // validate_metrics guarantees the section exists; keep
                // the fail-closed posture anyway.
                eprintln!("metrics: {path}: missing deterministic section");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("{path}: valid {}", confanon::obs::METRICS_SCHEMA);
    }
    ExitCode::SUCCESS
}

/// `confanon audit --risk`: the quantified risk–utility harness.
///
/// Prices a *released* corpus the way an adversary would: the red team
/// sees only the anonymized bytes (plus, for the known-plaintext ASN
/// attack, the handful of pairs a BGP looking glass would leak), while
/// the utility score diffs the §5 routing-design facts extractable
/// before and after anonymization. Everything is seeded — the written
/// `confanon-risk-v1` report is byte-identical across repeats and
/// `--jobs` values for a fixed corpus, secret, and seed.
fn cmd_audit(args: &[String]) -> ExitCode {
    use confanon::core::FileStatus;
    use confanon::obs::RISK_REPORT_FILE_NAME;
    use confanon::redteam::{tradeoff_line, validate_risk_report, AuditOptions};

    let (opts, _pos) = parse_opts(args);

    // Validation mode: `audit --check-report FILE` mirrors `confanon
    // metrics` — parse, validate against confanon-risk-v1, exit nonzero
    // on any malformation.
    if let Some(path) = opts.get("check-report") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("audit: {path}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        };
        return match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| {
                validate_risk_report(&doc)?;
                Ok(doc)
            }) {
            Ok(doc) => {
                let rows = doc
                    .get("tradeoff")
                    .and_then(Json::as_array)
                    .map_or(0, |a| a.len());
                eprintln!(
                    "{path}: valid {} ({rows} tradeoff row(s))",
                    confanon::redteam::RISK_SCHEMA
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("audit: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if !opts.contains_key("risk") {
        eprintln!("audit: --risk is required (or --check-report FILE)");
        return ExitCode::from(EXIT_USAGE);
    }
    let (Some(pre_dir), Some(post_dir)) = (
        opts.get("pre-dir").map(PathBuf::from),
        opts.get("post-dir").map(PathBuf::from),
    ) else {
        eprintln!("audit: --risk requires --pre-dir DIR and --post-dir DIR");
        return ExitCode::from(EXIT_USAGE);
    };
    let Some(secret) = opts.get("secret") else {
        eprintln!("audit: --secret is required (the owner secret the corpus was anonymized under)");
        return ExitCode::from(EXIT_USAGE);
    };
    let secret_bytes = secret.clone().into_bytes();

    // Numeric knobs, each falling back to the AuditOptions default.
    let defaults = AuditOptions::default();
    let parse_usize = |key: &str, fallback: usize| -> Result<usize, ExitCode> {
        match opts.get(key).map(|v| v.parse()) {
            None => Ok(fallback),
            Some(Ok(n)) => Ok(n),
            Some(Err(_)) => {
                eprintln!("audit: --{key} must be a non-negative integer");
                Err(ExitCode::from(EXIT_USAGE))
            }
        }
    };
    let top_k = match parse_usize("top-k", defaults.top_k) {
        Ok(n) => n,
        Err(c) => return c,
    };
    let known_pairs = match parse_usize("known-pairs", defaults.known_pairs) {
        Ok(n) => n,
        Err(c) => return c,
    };
    let candidates = match parse_usize("candidates", defaults.candidates) {
        Ok(n) => n,
        Err(c) => return c,
    };
    let decoy_sweep = match parse_usize("decoys", 0) {
        Ok(n) => n,
        Err(c) => return c,
    };
    let jobs = match parse_usize("jobs", 0) {
        Ok(n) if n <= MAX_JOBS => n,
        Ok(n) => {
            eprintln!("audit: --jobs {n} exceeds the {MAX_JOBS}-worker cap");
            return ExitCode::from(EXIT_USAGE);
        }
        Err(c) => return c,
    };
    let seed: u64 = match opts.get("seed").map(|s| s.parse()) {
        None => defaults.seed,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("audit: --seed must be a non-negative integer");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let sweep_rules: Vec<String> = match opts.get("disable-rule") {
        Some(spec) => {
            let mut rules = Vec::new();
            for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                if !ALL_RULES.iter().any(|r| r.name == name) {
                    eprintln!("audit: unknown rule {name:?} (see `confanon rules`)");
                    return ExitCode::from(EXIT_USAGE);
                }
                rules.push(name.to_string());
            }
            rules
        }
        None => confanon::workflow::DEFAULT_SWEEP_RULES
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };

    // The released side must be an anonymized output directory: the run
    // journal is both the file list and the decoy provenance record.
    // Anything else — a raw corpus, an empty directory — is a usage
    // error, not an I/O error: auditing non-anonymized bytes as if they
    // were a release would report nonsense risk numbers.
    let manifest_path = post_dir.join(RUN_MANIFEST_NAME);
    let manifest = match std::fs::read_to_string(&manifest_path)
        .map_err(|e| e.to_string())
        .and_then(|t| RunManifest::from_json_str(&t).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "audit: {} is not an anonymized output directory \
                 (no readable {RUN_MANIFEST_NAME}: {e})",
                post_dir.display()
            );
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if manifest.secret_fingerprint != RunManifest::fingerprint(&secret_bytes) {
        // Proceed anyway: auditing a foreign-secret release against
        // this secret is the negative control (scores must collapse to
        // chance), so a mismatch is a warning, not a refusal.
        eprintln!(
            "audit: warning: --secret does not match the manifest's owner \
             fingerprint; attack scores will reflect a wrong-key adversary"
        );
    }
    let decoys: BTreeSet<String> = manifest.decoy_names().into_iter().collect();
    let mut post: Vec<(String, String)> = Vec::new();
    for f in &manifest.files {
        if f.status != FileStatus::Released {
            continue;
        }
        let path = post_dir.join(format!("{}.anon", f.name));
        match read_config_lossy(&path) {
            Ok(text) => post.push((f.name.clone(), text)),
            Err(e) => {
                eprintln!("audit: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    if post.is_empty() {
        eprintln!(
            "audit: no released outputs in {} (manifest has no released entries)",
            post_dir.display()
        );
        return ExitCode::from(EXIT_USAGE);
    }

    // The pre side re-reads the original corpus exactly the way batch
    // does (sorted recursion, hostile-input repair) so names line up
    // with the manifest entries.
    let mut pre_paths = Vec::new();
    if let Err(e) = collect_cfg_files(&pre_dir, &mut pre_paths) {
        eprintln!("audit: {e}");
        return ExitCode::from(EXIT_IO);
    }
    if pre_paths.is_empty() {
        eprintln!("audit: no .cfg files under {}", pre_dir.display());
        return ExitCode::from(EXIT_USAGE);
    }
    let mut pre: Vec<(String, String)> = Vec::with_capacity(pre_paths.len());
    for p in &pre_paths {
        let rel = p
            .strip_prefix(&pre_dir)
            .unwrap_or(p)
            .to_string_lossy()
            .to_string();
        match read_config_lossy(p) {
            Ok(text) => pre.push((rel, text)),
            Err(e) => {
                eprintln!("audit: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }

    let audit = confanon::workflow::risk_audit(&confanon::workflow::RiskAuditInput {
        pre: &pre,
        post: &post,
        decoys: &decoys,
        secret: &secret_bytes,
        jobs,
        opts: AuditOptions {
            seed,
            top_k,
            known_pairs,
            candidates,
        },
        sweep_rules: &sweep_rules,
        decoy_sweep,
    });
    // Self-check before writing: a report this command emits must pass
    // its own validator, or the schema contract is broken.
    if let Err(e) = validate_risk_report(&audit.report) {
        eprintln!("audit: internal error: generated report failed validation: {e}");
        return ExitCode::from(EXIT_IO);
    }

    let report_path = opts
        .get("report")
        .map(PathBuf::from)
        .unwrap_or_else(|| post_dir.join(RISK_REPORT_FILE_NAME));
    let mut durability = DurabilityStats::default();
    let json = audit.report.to_string_pretty();
    if let Err(e) = write_atomic(&StdFs, &report_path, json.as_bytes(), &mut durability) {
        eprintln!("audit: {e}");
        return ExitCode::from(exit_for(&e));
    }

    println!("{}", tradeoff_line("baseline", &audit.baseline));
    for row in &audit.rows {
        println!("{}", tradeoff_line(&row.label, &row.suite));
    }
    eprintln!(
        "risk report written to {} ({} tradeoff row(s), risk {:.3}, utility {:.3})",
        report_path.display(),
        audit.rows.len() + 1,
        audit.baseline.risk_overall(),
        audit.baseline.utility.fraction()
    );
    ExitCode::from(EXIT_OK)
}

fn cmd_serve(args: &[String]) -> ExitCode {
    use confanon::core::serve::{run_daemon, ServeConfig, ServeOptions};
    use confanon::core::tenant::FlushMode;

    let (opts, pos) = parse_opts(args);
    if let Some(extra) = pos.first() {
        eprintln!("serve: unexpected positional argument {extra:?}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(config_path) = opts.get("config") else {
        eprintln!("serve: --config confanon.toml is required (tenant roster + endpoint)");
        return ExitCode::from(EXIT_USAGE);
    };
    let text = match std::fs::read_to_string(config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve: {config_path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let mut cfg = match ServeConfig::parse(config_path, &text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(exit_for(&e));
        }
    };

    // CLI overrides beat the file; an endpoint override replaces the
    // file's endpoint entirely (exactly one may remain set).
    if let Some(listen) = opts.get("listen") {
        cfg.listen = Some(listen.clone());
        cfg.socket = None;
    }
    if let Some(socket) = opts.get("socket") {
        cfg.socket = Some(PathBuf::from(socket));
        cfg.listen = None;
    }
    if let Some(depth) = opts.get("queue-depth") {
        match depth.parse::<usize>() {
            Ok(n) if (1..=4096).contains(&n) => cfg.queue_depth = n,
            _ => {
                eprintln!("serve: --queue-depth must be an integer in 1..=4096");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if let Some(ms) = opts.get("request-timeout-ms") {
        match ms.parse::<u64>() {
            Ok(n) if n > 0 => cfg.request_timeout_ms = n,
            _ => {
                eprintln!("serve: --request-timeout-ms must be a positive integer");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if let Some(ms) = opts.get("idle-timeout-ms") {
        match ms.parse::<u64>() {
            Ok(n) if n > 0 => cfg.idle_timeout_ms = n,
            _ => {
                eprintln!("serve: --idle-timeout-ms must be a positive integer");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if let Some(max) = opts.get("max-connections") {
        match max.parse::<usize>() {
            Ok(n) if (1..=4096).contains(&n) => cfg.max_connections = n,
            _ => {
                eprintln!("serve: --max-connections must be an integer in 1..=4096");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if let Some(mode) = opts.get("flush") {
        match FlushMode::parse(mode) {
            Some(m) => cfg.flush = m,
            None => {
                eprintln!("serve: --flush must be `request` or `drain`");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let serve_opts = ServeOptions {
        port_file: opts.get("port-file").map(PathBuf::from),
        require_clean_state: opts.contains_key("require-clean-state"),
    };

    match run_daemon(&cfg, &serve_opts, config_path) {
        Ok(summary) => {
            eprintln!(
                "serve: drained cleanly — {} connection(s), {} request(s), \
                 {} busy rejection(s), {} tenant(s) flushed",
                summary.connections, summary.requests, summary.busy_rejections, summary.tenants
            );
            ExitCode::from(EXIT_OK)
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::from(exit_for(&e))
        }
    }
}

/// Exit code for "the daemon said try again later" — the conventional
/// sysexits `EX_TEMPFAIL`, distinct from every pipeline error code.
const EXIT_RETRIABLE: u8 = 75;

fn cmd_client(args: &[String]) -> ExitCode {
    use confanon_testkit::serveclient::{Backoff, ServeClient};
    use std::io::Read as _;

    let (opts, pos) = parse_opts(args);
    let Some(endpoint) = opts.get("endpoint") else {
        eprintln!("client: --endpoint HOST:PORT (or unix:PATH) is required");
        return ExitCode::from(EXIT_USAGE);
    };
    let Some(action) = pos.first().map(String::as_str) else {
        eprintln!("client: an action is required: ping|stats|flush|shutdown|anon");
        return ExitCode::from(EXIT_USAGE);
    };
    if !matches!(action, "ping" | "stats" | "flush" | "shutdown" | "anon") {
        eprintln!("client: unknown action {action:?} (ping|stats|flush|shutdown|anon)");
        return ExitCode::from(EXIT_USAGE);
    }
    // Retry knobs are validated before any connection is attempted, so
    // a typo'd flag is a usage error even when no daemon is up.
    let retries: usize = match opts.get("retries").map(|r| r.parse()) {
        None => 10,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("client: --retries must be a positive integer");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let parse_ms = |key: &str, default: u64| -> Result<u64, ExitCode> {
        match opts.get(key).map(|v| v.parse::<u64>()) {
            None => Ok(default),
            Some(Ok(n)) if n >= 1 => Ok(n),
            Some(_) => {
                eprintln!("client: --{key} must be a positive integer");
                Err(ExitCode::from(EXIT_USAGE))
            }
        }
    };
    let base_ms = match parse_ms("backoff-base-ms", 25) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let cap_ms = match parse_ms("backoff-cap-ms", 1000) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let seed = match opts.get("backoff-seed").map(|v| v.parse::<u64>()) {
        None => 0,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("client: --backoff-seed must be an unsigned integer");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut client = match ServeClient::connect(endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client: {endpoint}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };

    let reply = match action {
        "ping" => client.ping(),
        "stats" => client.stats(),
        "shutdown" => client.shutdown(),
        "flush" => {
            let Some(tenant) = opts.get("tenant") else {
                eprintln!("client: flush requires --tenant NAME");
                return ExitCode::from(EXIT_USAGE);
            };
            client.flush(tenant)
        }
        "anon" => {
            let Some(tenant) = opts.get("tenant") else {
                eprintln!("client: anon requires --tenant NAME");
                return ExitCode::from(EXIT_USAGE);
            };
            let (payload, default_name) = match pos.get(1) {
                Some(file) => match std::fs::read(file) {
                    Ok(bytes) => {
                        let name = Path::new(file)
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_else(|| "stdin".to_string());
                        (bytes, name)
                    }
                    Err(e) => {
                        eprintln!("client: {file}: {e}");
                        return ExitCode::from(EXIT_IO);
                    }
                },
                None => {
                    let mut bytes = Vec::new();
                    if let Err(e) = std::io::stdin().read_to_end(&mut bytes) {
                        eprintln!("client: stdin: {e}");
                        return ExitCode::from(EXIT_IO);
                    }
                    (bytes, "stdin".to_string())
                }
            };
            let name = opts.get("name").cloned().unwrap_or(default_name);
            let mut backoff = Backoff::new(seed, base_ms, cap_ms);
            client.anon_with_backoff(tenant, &name, &payload, retries, &mut backoff)
        }
        // Validated above; unreachable by construction.
        _ => unreachable!("action validated before connect"),
    };

    match reply {
        Ok(reply) => {
            use std::io::Write as _;
            let ok = matches!(reply.status.as_str(), "OK" | "BYE" | "DEGRADED");
            if ok {
                // DEGRADED carries the anonymized text (mappings are
                // resident and sticky) but the daemon could not flush it
                // durably — usable output, so exit 0, with the caveat on
                // stderr where scripts that care can see it.
                if reply.status == "DEGRADED" {
                    eprintln!(
                        "client: warning: tenant is degraded — output is correct but the \
                         daemon's durable flush is suspended until its store heals"
                    );
                }
                let mut stdout = std::io::stdout().lock();
                if stdout.write_all(&reply.payload).is_err() {
                    return ExitCode::from(EXIT_IO);
                }
                ExitCode::from(EXIT_OK)
            } else {
                eprintln!("client: {}: {}", reply.status, reply.text());
                if reply.retriable() {
                    ExitCode::from(EXIT_RETRIABLE)
                } else {
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("client: {endpoint}: {e}");
            ExitCode::from(EXIT_IO)
        }
    }
}

/// `netchaos` — the seeded fault-injecting proxy from
/// `confanon_testkit::netchaos`, exposed as a subcommand so shell-level
/// smoke tests (ci.sh) can put a hostile wire in front of a live daemon
/// without writing Rust. Runs until SIGTERM, exits 0.
fn cmd_netchaos(args: &[String]) -> ExitCode {
    use confanon_testkit::netchaos::{ChaosProxy, Profile};

    let (opts, pos) = parse_opts(args);
    if let Some(extra) = pos.first() {
        eprintln!("netchaos: unexpected positional argument {extra:?}");
        return ExitCode::from(EXIT_USAGE);
    }
    let Some(upstream) = opts.get("upstream") else {
        eprintln!("netchaos: --upstream HOST:PORT is required (the daemon to shield)");
        return ExitCode::from(EXIT_USAGE);
    };
    let seed = match opts.get("seed").map(|v| v.parse::<u64>()) {
        None => 0,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("netchaos: --seed must be an unsigned integer");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let profile_name = opts.get("profile").map(String::as_str).unwrap_or("hostile");
    let Some(profile) = Profile::parse(profile_name) else {
        eprintln!("netchaos: unknown profile {profile_name:?} (hostile|lossless)");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut proxy = match ChaosProxy::spawn(seed, profile, upstream) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("netchaos: cannot listen: {e}");
            return ExitCode::from(EXIT_BIND);
        }
    };
    if let Some(pf) = opts.get("port-file") {
        if let Err(e) = std::fs::write(pf, format!("{}\n", proxy.addr())) {
            eprintln!("netchaos: {pf}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }
    confanon::core::signals::install_term_handler();
    eprintln!(
        "netchaos: proxying {} -> {upstream} (seed {seed}, profile {profile_name})",
        proxy.addr()
    );
    while !confanon::core::signals::term_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    proxy.stop();
    eprintln!("netchaos: stopped");
    ExitCode::from(EXIT_OK)
}

fn cmd_rules() -> ExitCode {
    println!("{:<5} {:<24} {:<14} description", "id", "name", "category");
    for (i, r) in ALL_RULES.iter().enumerate() {
        println!(
            "R{:02}   {:<24} {:<14} {}",
            i + 1,
            r.name,
            format!("{:?}", r.category),
            r.description.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    ExitCode::SUCCESS
}
