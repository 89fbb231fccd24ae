//! `confanon` — the command-line anonymizer.
//!
//! The workflow the paper's §7 clearinghouse envisions: a network owner
//! downloads the tool, anonymizes their configs locally under a secret
//! only they hold, audits the output, and uploads the result. The
//! subcommands, their options and their exit codes are listed in
//! [`USAGE`], which `confanon` prints when run without a subcommand.

#![deny(rustdoc::broken_intra_doc_links)]

// Fail-closed at the CLI boundary too: no abort on input-derived data.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Component, Path, PathBuf};
use std::process::ExitCode;

use confanon::confgen::{generate_dataset, DatasetSpec};
use confanon::core::{
    write_atomic, AnonError, AnonymizerConfig, DurabilityStats, RuleId, RunManifest, StdFs,
    ALL_RULES, RUN_MANIFEST_NAME,
};
use confanon::iosparse::Config;
use confanon::obs::{validate_metrics, validate_trace, Clock, ObsShard};
use confanon::redteam::AuditOptions;
use confanon::validate::{compare_designs, compare_properties, network_properties};
use confanon::workflow::{
    anonymize_corpus_gated, read_configs, read_corpus, run_batch, walk_files, BatchOptions,
    BatchOutcome, GatedCorpusRun, GatedOptions, DEFAULT_SWEEP_RULES,
};
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
/// `confanon.toml` failed validation.
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

/// Reports a pipeline error: the one place the binary prints one.
fn fail(cmd: &str, e: &AnonError) -> ExitCode {
    eprintln!("{cmd}: {e}");
    ExitCode::from(exit_for(e))
}

/// Each subcommand with the options it takes, space-separated: those
/// with a value, then switches. Any other `--option` is refused.
const COMMANDS: [(&str, Handler, &str, &str); 12] = [
    ("anonymize", cmd_anonymize, "secret audit out-dir", "compact"),
    (
        "batch",
        cmd_batch,
        "jobs secret out-dir quarantine-dir disable-rule metrics trace bench-json state decoys",
        "resume",
    ),
    ("chaos", cmd_chaos, "seed count out-dir", ""),
    ("generate", cmd_generate, "networks routers seed out-dir", ""),
    ("validate", cmd_validate, "pre-dir post-dir", ""),
    ("scan", cmd_scan, "record", ""),
    ("metrics", cmd_metrics, "trace serve", "deterministic"),
    (
        "audit",
        cmd_audit,
        "check-report pre-dir post-dir secret seed top-k known-pairs candidates \
         disable-rule decoys jobs report",
        "risk",
    ),
    ("serve", cmd_serve, "config listen socket port-file", "require-clean-state"),
    (
        "client",
        cmd_client,
        "endpoint tenant name retries backoff-base-ms backoff-cap-ms backoff-seed",
        "",
    ),
    ("netchaos", cmd_netchaos, "upstream seed profile port-file", ""),
    ("rules", cmd_rules, "", ""),
];

/// The usage text: every subcommand and every option [`COMMANDS`]
/// accepts (a unit test holds the two in step).
const USAGE: &str = "\
usage: confanon <anonymize|batch|chaos|generate|validate|scan|metrics|audit|serve|client|netchaos|rules> [options]

anonymize --secret <secret> [--compact] [--audit FILE] [--out-dir DIR] FILE...
    Anonymize config files under one owner secret. With --out-dir,
    writes <name>.anon; otherwise prints to stdout. Two inputs with the
    same file name are refused with --out-dir. Each output is
    leak-scanned first, as in batch: a flagged one is withheld and its
    lines listed on stderr. --audit FILE writes the plaintext mapping
    audit (keep it private; refused inside --out-dir). Exit codes as
    for batch: 0 ok, 1 I/O, 2 usage, 3 panic-contained, 4 leak-gated.
batch [--jobs N] [--secret <secret>] [--out-dir DIR] [--quarantine-dir DIR]
      [--disable-rule NAME[,NAME...]] [--metrics FILE] [--trace FILE]
      [--bench-json FILE] [--resume] [--state DIR] [--decoys N] DIR
    Anonymize every .cfg under DIR (recursively, one keyed state)
    using N discovery/rewrite workers. 0 = logical core count; values
    above the corpus size are clamped to one worker per file; values
    above 512 are rejected as a usage error. Output is byte-identical
    at any worker count. Every output is leak-scanned before release;
    outputs with residual identifiers go to the quarantine directory
    (default <out-dir>-quarantine) with a machine-readable
    leak_report.json.
    With --out-dir, writes are atomic+durable and journaled in
    run_manifest.json; --resume verifies prior outputs against the
    journal digests and re-processes only what is missing or torn.
    --metrics writes a confanon-metrics-v1 document (deterministic +
    timing sections); --trace writes Chrome trace-event JSON.
    --state DIR persists the full mapping state (confanon-state-v1)
    after publishing; a warm rerun skips watermark-unchanged files
    and keeps every previously issued mapping stable. Requires
    --out-dir; an invalid, foreign, or corrupt state refuses with
    exit 2.
    The quarantine and state directories hold private data and are
    refused (exit 2) when they resolve inside --out-dir.
    --decoys N injects N NetCloak-style synthetic chaff routers per
    network, appended after the real corpus (real outputs stay
    byte-identical) and flagged \"decoy\" in run_manifest.json.
    Exit codes: 0 ok, 1 I/O, 2 usage, 3 panic-contained, 4 leak-gated,
    5 interrupted-but-resumable (journal intact; re-run with --resume).
chaos [--seed S] [--count N] --out-dir DIR
    Emit N chaos-mutated (hostile) config files for pipeline smoke
    tests; deterministic per seed.
generate [--networks N] [--routers M] [--seed S] --out-dir DIR
    Emit a synthetic corpus (one directory per network).
validate --pre-dir DIR --post-dir DIR
    Run both validation suites over the .cfg files under --pre-dir
    and the released files under --post-dir (both recursive; a
    trailing .anon is stripped, run_manifest.json skipped), as batch
    lays them out. Prints how many configs it compared; an empty or
    mismatched file set fails.
scan --record FILE.json FILE...
    Flag lines in anonymized files that still contain items from a
    leak record (JSON with asns/ips/words arrays).
metrics [--deterministic] [--trace FILE] [--serve FILE] [FILE]
    Validate a metrics.json (or, with --trace, a trace file; with
    --serve, a confanon-serve-metrics-v1 stats frame).
    --deterministic prints only the deterministic section, for
    diffing two runs.
audit --risk --pre-dir DIR --post-dir DIR --secret <secret>
      [--seed S] [--top-k K] [--known-pairs M] [--candidates N]
      [--disable-rule NAME[,NAME...]] [--decoys N] [--jobs N]
      [--report FILE]
audit --check-report FILE
    Quantified risk–utility audit: runs a seeded de-anonymization
    red team (prefix-structure fingerprinting, degree-distribution
    matching, known-plaintext ASN recovery) against the released
    bytes in --post-dir (must hold a run_manifest.json), scores the
    fraction of routing-design facts preserved, and sweeps weakened
    variants (rule ablations, scrambled IPs, decoy chaff) into a
    tradeoff table. Writes a confanon-risk-v1 report (default
    <post-dir>/risk_report.json); byte-identical for a given corpus,
    secret, and seed at any --jobs value. --check-report validates
    an existing report.
serve --config confanon.toml [--listen HOST:PORT | --socket PATH]
      [--port-file FILE] [--require-clean-state]
    Multi-tenant anonymization daemon (CONFANON/1 protocol). Each
    [tenant.NAME] section holds its own secret + state_dir; tenants
    are isolated (bounded queues, per-request panic containment,
    per-tenant leak quarantine, per-tenant request quotas). Queue
    depth, timeouts, the connection bound and the flush mode are
    confanon.toml keys. Hostile peers are contained per connection:
    malformed frames get one classified ERROR, dribbled frames hit
    the read deadline, silent connections hit the idle timeout, and
    arrivals past the connection bound are shed with a BUSY
    retry-after hint. A tenant whose store fails permanently degrades
    (DEGRADED responses, flushing suspended) and self-heals via
    recovery probes, as does a state-quarantined tenant once its
    store reloads cleanly. SIGTERM or a SHUTDOWN frame drains:
    in-flight requests finish, every tenant state flushes atomically,
    exit 0. Serve exits: 6 bind failed, 7 config invalid, 8 tenant
    state refused (--require-clean-state).
client --endpoint HOST:PORT|unix:PATH <ping|stats|flush|shutdown|anon>
      [--tenant NAME] [--name FILE] [--retries N]
      [--backoff-base-ms MS] [--backoff-cap-ms MS] [--backoff-seed S]
      [FILE]
    Minimal CONFANON/1 test client: anon sends FILE (or stdin) and
    prints the anonymized payload; stats prints the metrics frame.
    Retries use seeded jittered exponential backoff that honors the
    server's retry-after-ms hint; retriable BUSY/TIMEOUT responses
    exit 75 after --retries. DEGRADED prints the payload (exit 0)
    with a durability warning on stderr.
netchaos --upstream HOST:PORT [--seed S] [--profile hostile|lossless]
      [--port-file FILE]
    Seeded fault-injecting TCP proxy for serve-hardening tests:
    dribbles, tears, duplicates, garbles, and disconnects
    client->server traffic per the profile, deterministically per
    seed and connection index. SIGTERM stops it (exit 0).
rules
    Print the 28 contextual rules.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let Some(&(_, cmd, values, flags)) = COMMANDS.iter().find(|c| c.0 == name) else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    match parse_opts(name, &args[1..], values, flags) {
        Ok((opts, pos)) => cmd(&opts, &pos),
        Err(code) => code,
    }
}

/// A subcommand's options: `--key value` pairs, `"true"` for switches.
type Opts = BTreeMap<String, String>;

/// A subcommand: its options and positional arguments to an exit code.
type Handler = fn(&Opts, &[String]) -> ExitCode;

/// Minimal option parser: `--key value` options, `--flag` switches, and
/// bare-word positionals. `values` and `flags` list (space-separated)
/// every option `cmd` takes; any other `--option`, or a value option
/// without its value, is a usage error that names it, so a typo
/// (`--secert`) can never fall back to a default unnoticed.
fn parse_opts(
    cmd: &str,
    args: &[String],
    values: &str,
    flags: &str,
) -> Result<(Opts, Vec<String>), ExitCode> {
    let mut opts = BTreeMap::new();
    let mut pos = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let flag = flags.split_whitespace().any(|f| f == key);
            if !flag && !values.split_whitespace().any(|v| v == key) {
                eprintln!("{cmd}: unknown option --{key}");
                return Err(ExitCode::from(EXIT_USAGE));
            }
            if flag {
                opts.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            // A value option must not swallow the next option, nor read
            // as a switch: `--secret --jobs 1` would key the run with a
            // guessable secret.
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    opts.insert(key.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    eprintln!("{cmd}: --{key} needs a value");
                    return Err(ExitCode::from(EXIT_USAGE));
                }
            }
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    Ok((opts, pos))
}

/// The numeric option `key`, or `default` when it is absent. A value
/// that does not parse is a usage error naming the option.
fn num_opt<T: std::str::FromStr>(
    cmd: &str,
    opts: &Opts,
    key: &str,
    default: T,
) -> Result<T, ExitCode> {
    match opts.get(key).map(|v| v.parse()) {
        None => Ok(default),
        Some(Ok(n)) => Ok(n),
        Some(Err(_)) => {
            eprintln!("{cmd}: --{key} must be a non-negative integer");
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// `--jobs N`: `0` (the default) is the logical core count.
fn jobs_opt(cmd: &str, opts: &Opts) -> Result<usize, ExitCode> {
    let jobs = num_opt(cmd, opts, "jobs", 0usize)?;
    if jobs > MAX_JOBS {
        eprintln!(
            "{cmd}: --jobs {jobs} exceeds the {MAX_JOBS}-worker cap \
             (0 = logical core count; counts above the corpus size \
             are clamped to one worker per file)"
        );
        return Err(ExitCode::from(EXIT_USAGE));
    }
    Ok(jobs)
}

/// The rules `--disable-rule NAME[,NAME...]` names, in order, or `None`
/// without the option. An unknown name is a usage error.
fn disabled_rules(cmd: &str, opts: &Opts) -> Result<Option<Vec<RuleId>>, ExitCode> {
    let Some(spec) = opts.get("disable-rule") else {
        return Ok(None);
    };
    let names = spec.split(',').map(str::trim).filter(|n| !n.is_empty());
    names
        .map(|name| {
            RuleId::from_name(name).ok_or_else(|| {
                eprintln!("{cmd}: unknown rule {name:?} (see `confanon rules`)");
                ExitCode::from(EXIT_USAGE)
            })
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// Refuses a private artifact that resolves inside the release
/// directory, where a release step that globs `--out-dir` would ship
/// it. Quarantined bytes, the mapping state (every original address)
/// and the mapping audit are all private.
fn outside_release(
    cmd: &str,
    out_dir: Option<&Path>,
    option: &str,
    path: Option<&Path>,
) -> Result<(), ExitCode> {
    let (Some(out), Some(path)) = (out_dir, path) else {
        return Ok(());
    };
    // Compare where the paths resolve, not how they are spelled:
    // `./OUT`, an absolute spelling, and `OUT/q` all land inside it.
    let (out, path) = (resolve_path(out), resolve_path(path));
    if !path.starts_with(&out) {
        return Ok(());
    }
    eprintln!(
        "{cmd}: {option} {} must lie outside --out-dir {}",
        path.display(),
        out.display()
    );
    Err(ExitCode::from(EXIT_USAGE))
}

/// Where `path` resolves: its deepest existing ancestor canonicalized
/// (symlinks and `..` followed), with the components that do not exist
/// yet applied lexically — so two spellings of one path compare equal
/// even before it is created.
fn resolve_path(path: &Path) -> PathBuf {
    let parts: Vec<Component<'_>> = path.components().collect();
    for split in (0..=parts.len()).rev() {
        let existing: PathBuf = match split {
            0 => PathBuf::from("."),
            _ => parts[..split].iter().collect(),
        };
        if let Ok(mut resolved) = existing.canonicalize() {
            for part in &parts[split..] {
                match part {
                    Component::CurDir => {}
                    Component::ParentDir => {
                        resolved.pop();
                    }
                    other => resolved.push(other),
                }
            }
            return resolved;
        }
    }
    path.to_path_buf()
}

/// The file `anonymize --out-dir` writes for input `path`.
fn anon_name(path: &str) -> String {
    let name = Path::new(path).file_name();
    format!("{}.anon", name.map_or("config".into(), |n| n.to_string_lossy()))
}

fn cmd_anonymize(opts: &Opts, files: &[String]) -> ExitCode {
    let Some(secret) = opts.get("secret") else {
        eprintln!("anonymize: --secret is required (the owner's salt; keep it private)");
        return ExitCode::from(EXIT_USAGE);
    };
    if files.is_empty() {
        eprintln!("anonymize: no input files");
        return ExitCode::from(EXIT_USAGE);
    }
    let out_dir = opts.get("out-dir").map(PathBuf::from);
    let audit = opts.get("audit").map(Path::new);
    if let Err(code) = outside_release("anonymize", out_dir.as_deref(), "--audit", audit) {
        return code;
    }
    if out_dir.is_some() {
        // One output name per input: a second `r1.cfg` from another
        // directory would silently overwrite the first one's output.
        let mut by_target: BTreeMap<String, &String> = BTreeMap::new();
        for f in files {
            if let Some(first) = by_target.insert(anon_name(f), f) {
                eprintln!("anonymize: {first} and {f} would both write {}", anon_name(f));
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let mut cfg = AnonymizerConfig::new(secret.clone().into_bytes());
    cfg.compact_regexps = opts.contains_key("compact");
    if let Some(d) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("anonymize: cannot create {}: {e}", d.display());
            return ExitCode::from(EXIT_IO);
        }
    }

    let paths: Vec<(String, PathBuf)> = files.iter().map(|f| (f.clone(), f.into())).collect();
    let inputs = match read_configs(&paths, &mut ObsShard::new(Clock::disabled())) {
        Ok(inputs) => inputs,
        Err(e) => return fail("anonymize", &e),
    };
    // The same fail-closed gate as `batch`: every output is scanned
    // against the run's own leak record (§6.1), and a flagged one is
    // withheld rather than written or printed.
    let mut run = match anonymize_corpus_gated(&inputs, cfg, GatedOptions::jobs(1)) {
        Ok(run) => run,
        Err(e) => return fail("anonymize", &e),
    };

    // Owner-side mapping audit (§5's colleague workflow). As sensitive
    // as the originals: written only where explicitly requested, and
    // atomically — a torn audit could silently lose mappings.
    let mut durability = DurabilityStats::default();
    if let Some(audit_path) = audit {
        let json = run.anonymizer.mapping_audit().to_json().to_string_pretty();
        if let Err(e) = write_atomic(&StdFs, audit_path, json.as_bytes(), &mut durability) {
            return fail("anonymize", &e);
        }
        eprintln!("mapping audit written to {} (KEEP PRIVATE)", audit_path.display());
    }

    for o in &run.clean {
        let Some(dir) = &out_dir else {
            print!("{}", o.text);
            continue;
        };
        let target = dir.join(anon_name(&o.name));
        if let Err(e) = write_atomic(&StdFs, &target, o.text.as_bytes(), &mut durability) {
            return fail("anonymize", &e);
        }
    }
    eprintln!(
        "anonymized {} file(s); withheld {} flagged by self-audit ({} line(s)), {} panic-contained",
        run.clean.len(),
        run.quarantined.len(),
        run.leak_count(),
        run.failures.len()
    );
    for q in &run.quarantined {
        for l in q.report.leaks.iter().take(10) {
            eprintln!("  withheld {} [{}]: {}", q.output.name, l.token, l.line);
        }
    }
    for f in &run.failures {
        eprintln!("  contained: {f}");
    }
    gated_exit(&run)
}

/// A gated run's exit code: 4 if the gate withheld a file, else 3 if a
/// file's panic was contained, else 0.
fn gated_exit(run: &GatedCorpusRun) -> ExitCode {
    if !run.quarantined.is_empty() {
        ExitCode::from(EXIT_LEAK_GATED)
    } else if !run.failures.is_empty() {
        ExitCode::from(EXIT_PANIC_CONTAINED)
    } else {
        ExitCode::from(EXIT_OK)
    }
}

fn cmd_batch(opts: &Opts, pos: &[String]) -> ExitCode {
    // SIGTERM must not kill the run mid-publish: the group commit polls
    // the flag before its journal write and between byte writes, and
    // converts it into the resumable exit 5 after the in-flight atomic
    // rename completes.
    confanon::core::signals::install_term_handler();
    let Some(corpus_dir) = pos.first().map(PathBuf::from) else {
        eprintln!("batch: a corpus directory is required");
        return ExitCode::from(EXIT_USAGE);
    };
    let (jobs, rules, decoys) = match (
        jobs_opt("batch", opts),
        disabled_rules("batch", opts),
        num_opt("batch", opts, "decoys", 0usize),
    ) {
        (Ok(jobs), Ok(rules), Ok(decoys)) => (jobs, rules, decoys),
        (Err(code), _, _) | (_, Err(code), _) | (_, _, Err(code)) => return code,
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
    let mut cfg = AnonymizerConfig::new(secret.into_bytes());
    for rule in rules.unwrap_or_default() {
        cfg = cfg.without_rule(rule);
    }

    let out_dir = opts.get("out-dir").map(PathBuf::from);
    let quarantine_dir = opts.get("quarantine-dir").map(PathBuf::from).unwrap_or_else(|| {
        match &out_dir {
            Some(d) => {
                // A sibling named after the directory itself: `upload/`
                // gives `upload-quarantine`, and `.` or `..` the
                // sibling of the directory they resolve to.
                let d: PathBuf = match d.components().next_back() {
                    Some(Component::Normal(_)) => d.components().collect(),
                    _ => resolve_path(d),
                };
                let mut s = d.into_os_string();
                s.push("-quarantine");
                PathBuf::from(s)
            }
            None => PathBuf::from("quarantine"),
        }
    });
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
    let out = out_dir.as_deref();
    let guarded = outside_release("batch", out, "--quarantine-dir", Some(&quarantine_dir))
        .and_then(|()| outside_release("batch", out, "--state", state_dir.as_deref()));
    if let Err(code) = guarded {
        return code;
    }

    let batch = BatchOptions {
        corpus_dir,
        cfg,
        jobs,
        decoys,
        out_dir,
        quarantine_dir,
        always_quarantine: opts.contains_key("quarantine-dir"),
        resume,
        state_dir,
        metrics: opts.get("metrics").map(PathBuf::from),
        trace: opts.get("trace").map(PathBuf::from),
    };
    let BatchOutcome {
        run,
        files,
        durability,
        elapsed,
    } = match run_batch(&batch) {
        Ok(outcome) => outcome,
        Err(e) => return fail("batch", &e),
    };

    let words = run.totals.words_total;
    let secs = elapsed.as_secs_f64().max(1e-9);
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
        words as f64 / secs,
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
    for key in ["metrics", "trace"] {
        if let Some(path) = opts.get(key) {
            eprintln!("{key} written to {path}");
        }
    }

    if let Some(json_path) = opts.get("bench-json") {
        // The headline the CI throughput bar gates on is min-of-5: the
        // real (published) run above plus four in-memory re-runs with
        // the same instrumented clock. A single-shot wall time on a
        // busy shared-core box swings ±20% (and worse under CPU
        // steal); min-of-N is the standard way to recover the
        // workload's actual cost from noisy samples.
        let skip: BTreeSet<String> = run.skipped.iter().cloned().collect();
        let mut best_secs = elapsed.as_secs_f64();
        for _ in 0..4 {
            let t = std::time::Instant::now();
            let rerun = anonymize_corpus_gated(
                &files,
                batch.cfg.clone(),
                GatedOptions {
                    skip: skip.clone(),
                    ..GatedOptions::jobs(jobs)
                },
            );
            std::hint::black_box(rerun.map(|r| r.clean.len()).ok());
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
            .with("observability", observability_overhead_json(&files, &batch.cfg, jobs))
            .with("discovery", discovery_bench_json(&files, &batch.cfg));
        let mut report_stats = DurabilityStats::default();
        let bytes = json.to_string_pretty();
        if let Err(e) = write_atomic(&StdFs, Path::new(json_path), bytes.as_bytes(), &mut report_stats)
        {
            return fail("batch", &e);
        }
        eprintln!("throughput written to {json_path}");
    }
    gated_exit(&run)
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
            let opts = GatedOptions {
                clock,
                ..GatedOptions::jobs(jobs)
            };
            let run = anonymize_corpus_gated(files, cfg.clone(), opts);
            std::hint::black_box(run.map(|r| r.clean.len()).ok());
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

/// Benchmarks the discovery pass in isolation: [`DISCOVERY_BENCH_JOBS`]
/// shards versus one (the same observe-merge-replay algorithm on the
/// calling thread alone, reported under its old name `sequential_ns`),
/// min-of-5 each, observability stripped so the clock measures only the
/// pass itself. The corpus is tiled up to at least 64 files so shard
/// spawn and copy overhead cannot dominate a small smoke corpus.
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

    let time_discover = |jobs: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let mut p = BatchPipeline::new(cfg.clone(), jobs).with_clock(Clock::disabled());
            let t = std::time::Instant::now();
            let failures = p.discover_corpus(&inputs);
            std::hint::black_box(failures.len());
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let sequential = time_discover(1);
    let sharded = time_discover(DISCOVERY_BENCH_JOBS);

    Json::obj()
        .with("files", inputs.len() as u64)
        .with("bytes", bytes)
        .with("jobs", DISCOVERY_BENCH_JOBS as u64)
        // Logical cores actually available: the sharded arm wins by
        // scanning shards in parallel over one shared regexp memo, so
        // below 2 it can only come close to parity — interpret
        // `sharded_speedup` accordingly.
        .with(
            "parallelism",
            std::thread::available_parallelism().map_or(1, usize::from) as u64,
        )
        .with("sequential_ns", sequential * 1e9)
        .with("sharded_ns", sharded * 1e9)
        .with("sharded_speedup", sequential / sharded.max(1e-9))
}

fn cmd_chaos(opts: &Opts, _pos: &[String]) -> ExitCode {
    let Some(out_dir) = opts.get("out-dir").map(PathBuf::from) else {
        eprintln!("chaos: --out-dir is required");
        return ExitCode::from(EXIT_USAGE);
    };
    let (seed, count) = match (
        num_opt("chaos", opts, "seed", 2004u64),
        num_opt("chaos", opts, "count", 64usize),
    ) {
        (Ok(seed), Ok(count)) => (seed, count),
        (Err(code), _) | (_, Err(code)) => return code,
    };
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
                    return fail("chaos", &e);
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

fn cmd_generate(opts: &Opts, _pos: &[String]) -> ExitCode {
    let Some(out_dir) = opts.get("out-dir").map(PathBuf::from) else {
        eprintln!("generate: --out-dir is required");
        return ExitCode::from(2);
    };
    let spec = match (
        num_opt("generate", opts, "seed", 2004),
        num_opt("generate", opts, "networks", 4),
        num_opt("generate", opts, "routers", 8),
    ) {
        (Ok(seed), Ok(networks), Ok(mean_routers)) => DatasetSpec {
            seed,
            networks,
            mean_routers,
            backbone_fraction: 0.35,
        },
        (Err(code), _, _) | (_, Err(code), _) | (_, _, Err(code)) => return code,
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

fn cmd_validate(opts: &Opts, _pos: &[String]) -> ExitCode {
    let (Some(pre), Some(post)) = (opts.get("pre-dir"), opts.get("post-dir")) else {
        eprintln!("validate: --pre-dir and --post-dir are required");
        return ExitCode::from(EXIT_USAGE);
    };
    // The post side is laid out as batch writes it: `<name>.anon` per
    // corpus file, beside the run journal.
    let released = |p: &Path| p.file_name().is_some_and(|n| n != RUN_MANIFEST_NAME);
    let mut obs = ObsShard::new(Clock::disabled());
    let read = read_corpus(Path::new(pre), &mut obs).and_then(|pre| {
        let post = read_configs(&walk_files(Path::new(post), &released)?, &mut obs)?;
        Ok((pre, post))
    });
    let (mut pre_cfgs, mut post_cfgs) = match read {
        Ok(sides) => sides,
        Err(e) => return fail("validate", &e),
    };
    for (name, _) in &mut post_cfgs {
        if let Some(stem) = name.strip_suffix(".anon") {
            name.truncate(stem.len());
        }
    }
    // Pair the two sides by name: suite 2 compares router by router.
    pre_cfgs.sort();
    post_cfgs.sort();
    let pre_names: Vec<&str> = pre_cfgs.iter().map(|(n, _)| n.as_str()).collect();
    let post_names: Vec<&str> = post_cfgs.iter().map(|(n, _)| n.as_str()).collect();
    if pre_names != post_names {
        eprintln!("validate: file sets differ: {pre_names:?} vs {post_names:?}");
        return ExitCode::from(EXIT_IO);
    }
    if pre_names.is_empty() {
        eprintln!("validate: no configs to compare under {pre}");
        return ExitCode::from(EXIT_IO);
    }
    println!("compared {} config(s)", pre_names.len());
    let pre_c: Vec<Config> = pre_cfgs.iter().map(|(_, t)| Config::parse(t)).collect();
    let post_c: Vec<Config> = post_cfgs.iter().map(|(_, t)| Config::parse(t)).collect();

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

fn cmd_scan(opts: &Opts, files: &[String]) -> ExitCode {
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
    for f in files {
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
fn cmd_metrics(opts: &Opts, files: &[String]) -> ExitCode {
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

/// `audit --risk`'s knobs: the attack battery (each knob defaulting as
/// [`AuditOptions::default`] does), the decoy sweep size, the worker
/// count and the rules to ablate.
fn audit_knobs(opts: &Opts) -> Result<(AuditOptions, usize, usize, Vec<String>), ExitCode> {
    let d = AuditOptions::default();
    let battery = AuditOptions {
        seed: num_opt("audit", opts, "seed", d.seed)?,
        top_k: num_opt("audit", opts, "top-k", d.top_k)?,
        known_pairs: num_opt("audit", opts, "known-pairs", d.known_pairs)?,
        candidates: num_opt("audit", opts, "candidates", d.candidates)?,
    };
    let sweep_rules = match disabled_rules("audit", opts)? {
        Some(rules) => rules.iter().map(RuleId::to_string).collect(),
        None => DEFAULT_SWEEP_RULES.iter().map(|s| s.to_string()).collect(),
    };
    let decoys = num_opt("audit", opts, "decoys", 0usize)?;
    Ok((battery, decoys, jobs_opt("audit", opts)?, sweep_rules))
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
fn cmd_audit(opts: &Opts, _pos: &[String]) -> ExitCode {
    use confanon::core::FileStatus;
    use confanon::obs::RISK_REPORT_FILE_NAME;
    use confanon::redteam::{tradeoff_line, validate_risk_report};

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

    let (battery, decoy_sweep, jobs, sweep_rules) = match audit_knobs(opts) {
        Ok(knobs) => knobs,
        Err(code) => return code,
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
    let released: Vec<(String, PathBuf)> = manifest
        .files
        .iter()
        .filter(|f| f.status == FileStatus::Released)
        .map(|f| (f.name.clone(), post_dir.join(format!("{}.anon", f.name))))
        .collect();
    let mut obs = ObsShard::new(Clock::disabled());
    let post = match read_configs(&released, &mut obs) {
        Ok(post) => post,
        Err(e) => return fail("audit", &e),
    };
    if post.is_empty() {
        eprintln!(
            "audit: no released outputs in {} (manifest has no released entries)",
            post_dir.display()
        );
        return ExitCode::from(EXIT_USAGE);
    }

    // The pre side is read exactly as batch reads it, so names line up
    // with the manifest entries.
    let pre = match read_corpus(&pre_dir, &mut obs) {
        Ok(pre) => pre,
        Err(e) => return fail("audit", &e),
    };
    if pre.is_empty() {
        eprintln!("audit: no .cfg files under {}", pre_dir.display());
        return ExitCode::from(EXIT_USAGE);
    }

    let audit = confanon::workflow::risk_audit(&confanon::workflow::RiskAuditInput {
        pre: &pre,
        post: &post,
        decoys: &decoys,
        secret: &secret_bytes,
        jobs,
        opts: battery,
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
        return fail("audit", &e);
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

fn cmd_serve(opts: &Opts, pos: &[String]) -> ExitCode {
    use confanon::core::serve::{run_daemon, ServeConfig, ServeOptions};

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
        Err(e) => return fail("serve", &e),
    };

    // An endpoint on the command line replaces the file's endpoint
    // entirely (exactly one may remain set).
    if let Some(listen) = opts.get("listen") {
        cfg.listen = Some(listen.clone());
        cfg.socket = None;
    }
    if let Some(socket) = opts.get("socket") {
        cfg.socket = Some(PathBuf::from(socket));
        cfg.listen = None;
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
        Err(e) => fail("serve", &e),
    }
}

/// Exit code for "the daemon said try again later" — the conventional
/// sysexits `EX_TEMPFAIL`, distinct from every pipeline error code.
const EXIT_RETRIABLE: u8 = 75;

fn cmd_client(opts: &Opts, pos: &[String]) -> ExitCode {
    use confanon_testkit::serveclient::{Backoff, ServeClient};
    use std::io::Read as _;

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
fn cmd_netchaos(opts: &Opts, pos: &[String]) -> ExitCode {
    use confanon_testkit::netchaos::{ChaosProxy, Profile};

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

fn cmd_rules(_opts: &Opts, _pos: &[String]) -> ExitCode {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--option` each usage entry names, by subcommand.
    fn documented_options() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
        let mut by_cmd: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut cmd = "";
        for line in USAGE.lines().skip(1) {
            if !line.starts_with(' ') {
                cmd = line.split_whitespace().next().unwrap_or("");
            }
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let options = words.filter_map(|w| w.strip_prefix("--"));
            by_cmd.entry(cmd).or_default().extend(options);
        }
        by_cmd.remove("");
        by_cmd
    }

    #[test]
    fn usage_text_names_exactly_what_the_dispatch_accepts() {
        let header = USAGE.lines().next().unwrap();
        let listed = header.split(['<', '>']).nth(1).unwrap();
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        assert_eq!(listed.split('|').collect::<Vec<_>>(), names);

        let documented = documented_options();
        assert_eq!(documented.keys().copied().collect::<BTreeSet<_>>(), names.iter().copied().collect());
        for (name, _, values, flags) in COMMANDS {
            let accepted: BTreeSet<&str> =
                values.split_whitespace().chain(flags.split_whitespace()).collect();
            assert_eq!(documented[name], accepted, "{name}: usage text vs dispatch");
        }
    }
}
