//! High-level workflows: anonymize a whole network and audit the result.
//!
//! These are the flows a network owner runs (paper §7's clearinghouse
//! vision): anonymize every router of a network with one keyed
//! [`Anonymizer`], scan the output against ground truth, and run both
//! validation suites pre vs post. [`run_batch`] is the whole
//! `confanon batch` run, and [`read_corpus`] the one corpus reader.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use confanon_confgen::{generate_decoy_routers, Network};
use confanon_core::leak::{LeakRecord, LeakReport, LeakScanner};
use confanon_core::publish::Outputs;
use confanon_core::state::{file_marks, state_path, watermark};
use confanon_core::{
    sanitize_bytes, write_atomic, AnonError, AnonState, AnonymizationStats, Anonymizer,
    AnonymizerConfig, BatchFailure, BatchInput, BatchOutput, BatchPipeline, CommitGroup,
    DurabilityStats, FileDiscovery, Fs, IpScheme, Publisher, RuleId, RunManifest, StdFs,
    WarmStart,
};
use confanon_crypto::Sha1;
use confanon_design::RoutingDesign;
use confanon_iosparse::Config;
use confanon_obs::{chrome_trace_json, is_observability_artifact, metrics_doc, Clock, ObsShard};
use confanon_redteam::{build_risk_report, run_suite, AttackSuite, AuditOptions, TradeoffRow};
use confanon_testkit::json::Json;
use confanon_validate::{compare_designs, compare_properties, Suite1Report, Suite2Report};

/// Everything produced by anonymizing one network.
pub struct NetworkRun {
    /// Anonymized config text per router (same order as the input).
    pub anonymized: Vec<String>,
    /// The anonymizer, retained for audits (maps, records, exclusions).
    pub anonymizer: Anonymizer,
}

/// Anonymizes every router of `net` under one owner secret.
pub fn anonymize_network(net: &Network, owner_secret: &[u8]) -> NetworkRun {
    let mut anonymizer = Anonymizer::new(AnonymizerConfig::new(owner_secret.to_vec()));
    let anonymized = net
        .routers
        .iter()
        .map(|r| anonymizer.anonymize_config(&r.config).text)
        .collect();
    NetworkRun {
        anonymized,
        anonymizer,
    }
}

/// Builds a [`LeakRecord`] from the generator's ground truth — the
/// operator's independent knowledge of what must not survive.
pub fn ground_truth_record(net: &Network) -> LeakRecord {
    let (asns, ips, words) = net.ground_truth.record_tuple();
    LeakRecord { asns, ips, words }
}

/// Scans a network's anonymized output against ground truth, excluding
/// the values the anonymizer legitimately emitted.
pub fn audit_network(net: &Network, run: &NetworkRun) -> LeakReport {
    let record = ground_truth_record(net);
    let text = run.anonymized.join("\n");
    LeakScanner::scan_excluding(&record, run.anonymizer.emitted_exclusions(), &text)
}

/// Runs validation suite 1 (independent characteristics) pre vs post.
pub fn run_suite1(net: &Network, run: &NetworkRun) -> Suite1Report {
    let pre: Vec<Config> = net.routers.iter().map(|r| Config::parse(&r.config)).collect();
    let post: Vec<Config> = run.anonymized.iter().map(|t| Config::parse(t)).collect();
    compare_properties(
        &confanon_validate::network_properties(&pre),
        &confanon_validate::network_properties(&post),
    )
}

/// Runs validation suite 2 (routing-design equality) pre vs post.
pub fn run_suite2(net: &Network, run: &NetworkRun) -> Suite2Report {
    let pre: Vec<Config> = net.routers.iter().map(|r| Config::parse(&r.config)).collect();
    let post: Vec<Config> = run.anonymized.iter().map(|t| Config::parse(t)).collect();
    compare_designs(&pre, &post)
}

/// Extracts the post-anonymization routing design (for fingerprinting).
pub fn post_design(run: &NetworkRun) -> RoutingDesign {
    let post: Vec<Config> = run.anonymized.iter().map(|t| Config::parse(t)).collect();
    confanon_design::extract_design(&post)
}

/// One output the §6.1 gate refused to release: residual recorded
/// identifiers survived anonymization, so the bytes must not reach the
/// output directory.
pub struct QuarantinedFile {
    /// The withheld output (name, text, stats).
    pub output: BatchOutput,
    /// The residual hits that triggered the gate.
    pub report: LeakReport,
}

/// Result of a fail-closed corpus run: every emitted output has passed
/// the leak gate; everything else is accounted for as a quarantine or a
/// contained per-file failure.
pub struct GatedCorpusRun {
    /// Outputs that passed the gate, in input order.
    pub clean: Vec<BatchOutput>,
    /// Outputs withheld by the gate, in input order.
    pub quarantined: Vec<QuarantinedFile>,
    /// Files whose processing panicked (contained), in input order.
    pub failures: Vec<BatchFailure>,
    /// Files whose rewrite was skipped because `--resume` verified
    /// their released bytes on disk, in input order.
    pub skipped: Vec<String>,
    /// Per-file discovery contributions (stats, prefilter path counts),
    /// keyed by input name — what a `--state` run persists per file so
    /// a later warm run can skip unchanged files entirely.
    pub discoveries: BTreeMap<String, FileDiscovery>,
    /// Aggregate counters across all emitted-or-quarantined outputs.
    pub totals: AnonymizationStats,
    /// Worker threads used for the rewrite pass.
    pub jobs: usize,
    /// The warmed anonymizer, retained for audits.
    pub anonymizer: Anonymizer,
    /// Observability data recorded across discovery, rewrite, and the
    /// leak gate (merged worker shards).
    pub obs: ObsShard,
    /// (v4, v6) trie node counts rebuilt from the warm start's state
    /// journal before discovery; `(0, 0)` on a cold run.
    pub restored_nodes: (u64, u64),
}

impl GatedCorpusRun {
    /// Total flagged lines across all quarantined files.
    pub fn leak_count(&self) -> usize {
        self.quarantined.iter().map(|q| q.report.leaks.len()).sum()
    }

    /// The machine-readable `leak_report.json` document: one object per
    /// quarantined file with its flagged lines, plus the contained
    /// per-file failures and summary counts. Round-trips through
    /// [`Json::parse`].
    pub fn leak_report_json(&self) -> Json {
        let quarantined: Vec<Json> = self
            .quarantined
            .iter()
            .map(|q| {
                let leaks: Vec<Json> = q
                    .report
                    .leaks
                    .iter()
                    .map(|l| {
                        Json::obj()
                            .with("line_no", l.line_no as u64)
                            .with("token", l.token.as_str())
                            .with("line", l.line.as_str())
                    })
                    .collect();
                Json::obj()
                    .with("name", q.output.name.as_str())
                    .with("leaks", Json::Arr(leaks))
            })
            .collect();
        let failures: Vec<Json> = self
            .failures
            .iter()
            .map(|f| {
                Json::obj()
                    .with("name", f.name.as_str())
                    .with("phase", f.phase.name())
                    .with("cause", f.cause.as_str())
            })
            .collect();
        Json::obj()
            .with("schema", "confanon-leak-report-v1")
            .with("clean_files", self.clean.len() as u64)
            .with("quarantined_files", self.quarantined.len() as u64)
            .with("panic_contained_files", self.failures.len() as u64)
            .with("total_leaks", self.leak_count() as u64)
            .with("quarantined", Json::Arr(quarantined))
            .with("failures", Json::Arr(failures))
    }

    /// Total input files this run accounted for, in any state.
    pub fn files_total(&self) -> usize {
        self.clean.len() + self.skipped.len() + self.quarantined.len() + self.failures.len()
    }

    /// The deterministic metrics section: byte-identical for a given
    /// corpus and config across any `--jobs` value AND across a resumed
    /// vs. one-shot run.
    ///
    /// Everything here derives from the sequential discovery pass, which
    /// always walks the *whole* corpus in input order (a resume skip set
    /// only suppresses re-emission): aggregate anonymization counters,
    /// per-rule fire counts, prefix-trie node counts, and the
    /// discovery-side counters/histograms. Corpus accounting uses
    /// `released_or_verified` (clean + resume-verified) rather than the
    /// two parts separately, because the split depends on where a prior
    /// run crashed. Rewrite/gate/publish counters, spans, and all
    /// wall-clock data are excluded — they belong in the timing section.
    pub fn metrics_deterministic_json(&self) -> Json {
        let mut rules = Json::obj();
        for (name, fires) in self.anonymizer.total_stats().rule_fires_complete() {
            rules.set(name, fires);
        }
        let mut by_category = Json::obj();
        for (cat, fires) in self.anonymizer.total_stats().rule_fires_by_category() {
            by_category.set(cat, fires);
        }
        let (trie4, trie6) = self.anonymizer.trie_node_counts();
        Json::obj()
            .with(
                "corpus",
                Json::obj()
                    .with("files_total", self.files_total() as u64)
                    .with(
                        "released_or_verified",
                        (self.clean.len() + self.skipped.len()) as u64,
                    )
                    .with("quarantined", self.quarantined.len() as u64)
                    .with("failed", self.failures.len() as u64)
                    .with("leaks_gated", self.leak_count() as u64),
            )
            .with("anonymization", self.anonymizer.total_stats().to_json())
            .with(
                "rules",
                Json::obj()
                    .with(
                        "fired_total",
                        self.anonymizer.total_stats().rules_fired_total(),
                    )
                    .with("by_category", by_category)
                    .with("by_rule", rules),
            )
            .with(
                "ipanon",
                Json::obj()
                    .with("trie4_nodes", trie4 as u64)
                    .with("trie6_nodes", trie6 as u64),
            )
            .with(
                "counters",
                counters_with_prefixes(
                    &self.obs,
                    &["phase.discover.", "phase.read.", "phase.sanitize."],
                ),
            )
            .with("histograms", self.obs.hists_json())
    }

    /// The timing metrics section: run-shape data (worker count,
    /// rewrite/gate counters, span aggregates) that legitimately varies
    /// with `--jobs`, `--resume`, and the wall clock. Callers append
    /// durability and elapsed-time fields before serializing.
    pub fn metrics_timing_json(&self) -> Json {
        Json::obj()
            .with("jobs", self.jobs as u64)
            .with(
                "counters",
                counters_with_prefixes(
                    &self.obs,
                    // `discovery.` (unlike `phase.discover.`) holds the
                    // shard-layout-dependent values: shard count and
                    // prefilter cache hits vary with `--jobs`.
                    &["phase.rewrite.", "phase.publish.", "gate.", "discovery."],
                ),
            )
            .with("spans", self.obs.span_summary_json())
    }
}

/// Counters whose keys match any of `prefixes`, as a key-ordered JSON
/// object (BTreeMap iteration order, so serialization is stable).
fn counters_with_prefixes(obs: &ObsShard, prefixes: &[&str]) -> Json {
    let mut out = Json::obj();
    for (k, v) in obs.counters() {
        if prefixes.iter().any(|p| k.starts_with(p)) {
            out.set(k, *v);
        }
    }
    out
}

/// How [`anonymize_corpus_gated`] runs a corpus.
pub struct GatedOptions<'a> {
    /// Discovery and rewrite workers (`0` = logical core count).
    pub jobs: usize,
    /// Resume skip set: these files still take part in discovery (the
    /// shared mapping state is corpus-order dependent) but are neither
    /// re-emitted nor re-scanned — their released bytes were already
    /// digest-verified on disk by [`Publisher::resume`].
    pub skip: BTreeSet<String>,
    /// The run's span timeline, and its observability switch:
    /// [`Clock::disabled`] strips every recording to a no-op, which is
    /// how the overhead benchmark measures the instrumented-vs-stripped
    /// cost.
    pub clock: Clock,
    /// A persisted state to warm-start from (`batch --state DIR`).
    pub warm: Option<&'a WarmStart>,
}

impl GatedOptions<'_> {
    /// A cold, one-shot run on `jobs` workers with live observability.
    pub fn jobs(jobs: usize) -> Self {
        GatedOptions {
            jobs,
            skip: BTreeSet::new(),
            clock: Clock::new(),
            warm: None,
        }
    }
}

/// Anonymizes a corpus fail-closed: after the batch pipeline emits, every
/// output is individually scanned against the anonymizer's own leak
/// record (§6.1 made mandatory instead of advisory). Outputs with
/// residual hits are quarantined — returned separately, never mixed with
/// the releasable set. Takes a full [`AnonymizerConfig`] so ablation
/// experiments (`disabled_rules`) flow through the same gate the
/// production path uses.
///
/// With [`GatedOptions::warm`], the state's identifier journal is
/// replayed into the fresh pipeline *before* discovery (restoring every
/// previously issued mapping), and files in [`WarmStart::prewarmed`] are
/// not scanned at all; their stored per-file contributions are absorbed
/// instead so the deterministic metrics match a cold run. Fails only if
/// the state's journal does not rebuild the tries it claims
/// ([`AnonError::StateInvalid`]); owner/version validation happens at
/// load time, so a cold run never fails.
pub fn anonymize_corpus_gated(
    files: &[(String, String)],
    cfg: AnonymizerConfig,
    opts: GatedOptions<'_>,
) -> Result<GatedCorpusRun, AnonError> {
    let mut pipeline = BatchPipeline::new(cfg, opts.jobs).with_clock(opts.clock);
    let Some(warm) = opts.warm else {
        return Ok(gated_run_on(pipeline, files, &opts.skip, &BTreeMap::new()));
    };
    let mut obs = ObsShard::new(opts.clock);
    let t_restore = obs.span_start();
    let restored_nodes = warm.restore_into(pipeline.anonymizer_mut())?;
    obs.span_end("state-restore", "phase", 0, t_restore);
    let mut run = gated_run_on(pipeline, files, &opts.skip, &warm.prewarmed);
    run.obs.merge(&obs);
    Ok(GatedCorpusRun {
        restored_nodes,
        ..run
    })
}

/// The gated-run body: batch pipeline (with optional prewarmed skip
/// map), then the §6.1 per-output leak gate.
fn gated_run_on(
    mut pipeline: BatchPipeline,
    files: &[(String, String)],
    skip: &BTreeSet<String>,
    prewarmed: &BTreeMap<String, FileDiscovery>,
) -> GatedCorpusRun {
    let inputs: Vec<BatchInput> = files
        .iter()
        .map(|(name, text)| BatchInput {
            name: name.clone(),
            text: text.clone(),
        })
        .collect();
    let report = pipeline.run_incremental(&inputs, skip, prewarmed);
    let mut obs = report.obs;
    let anonymizer = pipeline.into_anonymizer();

    let mut clean = Vec::new();
    let mut quarantined = Vec::new();
    let t_gate = obs.span_start();
    // One scanner for the whole corpus: the hash views over the leak
    // record and the exclusion set are built once, not per file.
    let scanner =
        LeakScanner::with_exclusions(anonymizer.leak_record(), anonymizer.emitted_exclusions());
    for output in report.outputs {
        let t_file = obs.span_start();
        let scan = scanner.scan(&output.text);
        obs.span_end(&output.name, "leak-scan", 0, t_file);
        if scan.is_clean() {
            clean.push(output);
        } else {
            quarantined.push(QuarantinedFile {
                output,
                report: scan,
            });
        }
    }
    obs.span_end("leak-scan", "phase", 0, t_gate);
    obs.count("gate.clean", clean.len() as u64);
    obs.count("gate.quarantined", quarantined.len() as u64);
    GatedCorpusRun {
        clean,
        quarantined,
        failures: report.failures,
        skipped: report.skipped,
        discoveries: report.discoveries,
        totals: report.totals,
        jobs: report.jobs,
        anonymizer,
        obs,
        restored_nodes: (0, 0),
    }
}

/// Every `.cfg` file under `dir`, recursively and in sorted order (the
/// corpus order fixes the shared mapping state), read and repaired by
/// [`read_configs`] and named by its path relative to `dir`. `batch`,
/// `audit` and `validate` all read a corpus through this one function.
pub fn read_corpus(dir: &Path, obs: &mut ObsShard) -> Result<Vec<(String, String)>, AnonError> {
    let is_cfg = |p: &Path| p.extension().is_some_and(|x| x == "cfg");
    read_configs(&walk_files(dir, &is_cfg)?, obs)
}

/// The files under `dir` that `keep` accepts, recursively and in sorted
/// order, as `(path relative to dir, path)`. Observability artifacts
/// from an earlier run (`metrics.json`, `*.trace.json`) are bookkeeping,
/// never input: they are skipped even if renamed to end in `.cfg`.
pub fn walk_files(
    dir: &Path,
    keep: &dyn Fn(&Path) -> bool,
) -> Result<Vec<(String, PathBuf)>, AnonError> {
    fn walk(
        root: &Path,
        dir: &Path,
        keep: &dyn Fn(&Path) -> bool,
        out: &mut Vec<(String, PathBuf)>,
    ) -> Result<(), AnonError> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| io_error(dir, e))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().map(|n| n.to_string_lossy().to_string());
            if name.as_deref().is_some_and(is_observability_artifact) {
                continue;
            }
            if path.is_dir() {
                walk(root, &path, keep, out)?;
            } else if keep(&path) {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                out.push((rel.to_string_lossy().to_string(), path));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, keep, &mut out)?;
    Ok(out)
}

/// Reads `(name, path)` files tolerantly: any byte sequence is accepted,
/// and hostile content is repaired ([`sanitize_bytes`]: lossy UTF-8,
/// control characters, oversized lines) with a note on stderr. Read and
/// sanitize are separate phases in `obs`: read is raw byte I/O, sanitize
/// the repair. Large files arrive as read-only memory maps on Linux
/// (zero-copy until sanitize), small ones as owned buffers.
pub fn read_configs(
    files: &[(String, PathBuf)],
    obs: &mut ObsShard,
) -> Result<Vec<(String, String)>, AnonError> {
    let mut raw = Vec::with_capacity(files.len());
    let t_read = obs.span_start();
    for (name, path) in files {
        let t_file = obs.span_start();
        let bytes = StdFs.read_mapped(path).map_err(|e| io_error(path, e))?;
        obs.span_end(name, "read", 0, t_file);
        obs.count("phase.read.files", 1);
        obs.count("phase.read.bytes", bytes.len() as u64);
        obs.count(
            if bytes.is_mapped() {
                "phase.read.mapped_files"
            } else {
                "phase.read.buffered_files"
            },
            1,
        );
        raw.push((name, bytes));
    }
    obs.span_end("read", "phase", 0, t_read);

    let mut texts = Vec::with_capacity(raw.len());
    let t_sanitize = obs.span_start();
    for (name, bytes) in raw {
        let t_file = obs.span_start();
        let (text, tally) = sanitize_bytes(&bytes);
        obs.span_end(name, "sanitize", 0, t_file);
        obs.count("phase.sanitize.files", 1);
        if !tally.is_clean() {
            eprintln!(
                "note: {name}: repaired hostile input ({} invalid UTF-8 sequence(s), \
                 {} control char(s), {} oversized line(s) truncated)",
                tally.invalid_utf8_replaced, tally.controls_replaced, tally.lines_truncated
            );
            obs.count("phase.sanitize.repaired_files", 1);
        }
        obs.count("phase.sanitize.invalid_utf8_replaced", tally.invalid_utf8_replaced);
        obs.count("phase.sanitize.controls_replaced", tally.controls_replaced);
        obs.count("phase.sanitize.lines_truncated", tally.lines_truncated);
        texts.push((name.clone(), text));
    }
    obs.span_end("sanitize", "phase", 0, t_sanitize);
    Ok(texts)
}

/// An I/O failure on `path`, as the CLI reports it (exit 1).
fn io_error(path: &Path, e: impl std::fmt::Display) -> AnonError {
    AnonError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// How [`run_batch`] runs one corpus (`confanon batch`).
pub struct BatchOptions {
    /// The corpus: every `.cfg` file under this directory.
    pub corpus_dir: PathBuf,
    /// The anonymizer configuration, keyed by the owner secret.
    pub cfg: AnonymizerConfig,
    /// Discovery and rewrite workers (`0` = logical core count).
    pub jobs: usize,
    /// NetCloak-style decoy routers injected per network.
    pub decoys: usize,
    /// The release directory. With it the run is journaled in
    /// `run_manifest.json`; without it only quarantine artifacts are
    /// written.
    pub out_dir: Option<PathBuf>,
    /// Where withheld bytes and `leak_report.json` go.
    pub quarantine_dir: PathBuf,
    /// Write the quarantine artifacts even when the gate withholds
    /// nothing.
    pub always_quarantine: bool,
    /// Continue the journaled run in `out_dir` (`--resume`).
    pub resume: bool,
    /// Warm-start from, and save the mapping state to, this directory
    /// (`--state`). Requires `out_dir`.
    pub state_dir: Option<PathBuf>,
    /// Where to write the `confanon-metrics-v1` document.
    pub metrics: Option<PathBuf>,
    /// Where to write the run's spans as Chrome trace-event JSON.
    pub trace: Option<PathBuf>,
}

/// What [`run_batch`] did.
pub struct BatchOutcome {
    /// The gated run; its shard covers every phase from read to publish.
    pub run: GatedCorpusRun,
    /// The corpus as anonymized: sanitized texts, decoys appended.
    pub files: Vec<(String, String)>,
    /// Counters of the run's durable writes.
    pub durability: DurabilityStats,
    /// Wall time of the gated run.
    pub elapsed: Duration,
}

/// Runs one batch: read → sanitize → decoys → warm start → journal
/// begin → gated run → publish → state save → metrics and trace.
/// Progress notes go to stderr. Each step is a `phase` span on the run's
/// one clock: `read`, `sanitize`, `state-load` (watermarks and the state
/// load, `--state` only), `journal-begin` (with an output directory),
/// the gated run's `state-restore` (warm only), `discover`, `rewrite`
/// and `leak-scan`, then `publish`.
///
/// With an output directory the run is journaled: a complete
/// all-pending manifest is durably on disk before any anonymization
/// work. `resume` re-verifies a prior journal's claims to build the skip
/// set; a `state_dir` run instead carries forward the released outputs
/// of watermark-unchanged files (digest-verified) and prunes whatever the
/// new corpus no longer vouches for. Once that journal is durable, an
/// I/O failure while publishing is [`AnonError::ResumableInterrupted`].
pub fn run_batch(opts: &BatchOptions) -> Result<BatchOutcome, AnonError> {
    // The release directory must exist (possibly empty) even when the
    // gate withholds every file, and an unwritable target should fail
    // before any anonymization work is done.
    for dir in opts.state_dir.iter().chain(&opts.out_dir) {
        StdFs.create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    }
    // One clock spans the whole run: the trace timeline.
    let clock = Clock::new();
    let mut obs = ObsShard::new(clock);
    let mut files = read_corpus(&opts.corpus_dir, &mut obs)?;
    if files.is_empty() {
        return Err(io_error(&opts.corpus_dir, "no .cfg files"));
    }
    let secret = &opts.cfg.owner_secret;
    let decoys = inject_decoys(&mut files, secret, opts.decoys);
    if opts.decoys > 0 {
        eprintln!(
            "decoys: injected {} synthetic chaff file(s) ({} requested per network)",
            decoys.len(),
            opts.decoys
        );
        obs.count("phase.decoys.files", decoys.len() as u64);
    }

    // Only a --state run reads watermarks, so a stateless one computes
    // none.
    let (watermarks, warm) = match &opts.state_dir {
        Some(dir) => {
            let t_load = obs.span_start();
            let watermarks: BTreeMap<String, String> =
                files.iter().map(|(n, t)| (n.clone(), watermark(t))).collect();
            let warm = WarmStart::load(&StdFs, dir, &opts.cfg, &watermarks)?;
            obs.span_end("state-load", "phase", 0, t_load);
            (watermarks, warm)
        }
        None => (BTreeMap::new(), None),
    };
    if let Some(w) = &warm {
        eprintln!(
            "state: loaded {} ({} mapped identifier(s)); {} of {} file(s) unchanged",
            w.path,
            w.state.journal.len(),
            w.prewarmed.len(),
            files.len()
        );
    }

    let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let (mut publisher, skip) = match &opts.out_dir {
        Some(dir) => {
            let t_begin = obs.span_start();
            let (mut p, skip) = if opts.resume {
                Publisher::resume(&StdFs, dir, secret, &names)?
            } else if opts.state_dir.is_some() {
                let unchanged = warm.iter().flat_map(|w| w.prewarmed.keys().cloned());
                Publisher::begin_incremental(&StdFs, dir, secret, &names, &unchanged.collect())?
            } else {
                (Publisher::begin(&StdFs, dir, secret, &names)?, BTreeSet::new())
            };
            // Every constructor builds the manifest from the name list
            // alone, so the decoy flags are re-stamped on each run.
            p.mark_decoys(&decoys)?;
            obs.span_end("journal-begin", "phase", 0, t_begin);
            (Some(p), skip)
        }
        None => (None, BTreeSet::new()),
    };

    let start = Instant::now();
    let gated = GatedOptions {
        skip,
        clock,
        warm: warm.as_ref(),
        ..GatedOptions::jobs(opts.jobs)
    };
    let mut run = anonymize_corpus_gated(&files, opts.cfg.clone(), gated)?;
    let elapsed = start.elapsed();

    // The leak report (and any withheld bytes) go to the quarantine
    // directory whenever there is something to report or the caller
    // asked for it.
    let gate_tripped = !run.quarantined.is_empty() || !run.failures.is_empty();
    let qdir = (gate_tripped || opts.always_quarantine).then_some(opts.quarantine_dir.as_path());
    let t_publish = obs.span_start();
    let mut durability = DurabilityStats::default();
    match &mut publisher {
        Some(p) => {
            let state = opts.state_dir.as_deref().map(|dir| (dir, &watermarks));
            publish_journaled(p, &run, qdir, state).map_err(|e| match e {
                // The journal is durable, so the run on disk resumes.
                AnonError::Io { path, message } if p.manifest_durable() => {
                    AnonError::ResumableInterrupted { path, message }
                }
                other => other,
            })?;
        }
        None => write_quarantine(&run, qdir, &mut durability)?,
    }
    if let Some(p) = publisher {
        durability = p.finish().1;
    }
    obs.span_end("publish", "phase", 0, t_publish);
    obs.count("phase.publish.released", run.clean.len() as u64);
    obs.count("phase.publish.quarantined", run.quarantined.len() as u64);
    // Fold the read, sanitize and publish phases into the run's shard
    // so the metrics and trace cover the whole pipeline.
    run.obs.merge(&obs);

    if let Some(path) = &opts.metrics {
        let mut timing = run
            .metrics_timing_json()
            .with("durability", durability.to_json())
            .with("elapsed_ns", elapsed.as_nanos() as f64);
        if opts.state_dir.is_some() {
            // Timing, not deterministic: skip counts depend on what
            // state was on disk, not on the corpus alone.
            let skipped = warm.as_ref().map_or(0, |w| w.prewarmed.len());
            timing = timing.with(
                "state",
                Json::obj()
                    .with("loaded", warm.is_some())
                    .with("created", true)
                    .with("files_skipped", skipped as u64)
                    .with("files_processed", (files.len() - skipped) as u64)
                    .with("trie4_nodes_restored", run.restored_nodes.0)
                    .with("trie6_nodes_restored", run.restored_nodes.1),
            );
        }
        let doc = metrics_doc(run.metrics_deterministic_json(), timing).to_string_pretty();
        write_atomic(&StdFs, path, doc.as_bytes(), &mut DurabilityStats::default())?;
    }
    if let Some(path) = &opts.trace {
        let workers: Vec<String> = (1..=run.jobs).map(|w| format!("worker-{w}")).collect();
        let mut lanes: Vec<(u32, &str)> = vec![(0, "pipeline")];
        lanes.extend((1..).zip(workers.iter().map(String::as_str)));
        let doc = chrome_trace_json(run.obs.spans(), &lanes).to_string_pretty();
        write_atomic(&StdFs, path, doc.as_bytes(), &mut DurabilityStats::default())?;
    }
    Ok(BatchOutcome {
        run,
        files,
        durability,
        elapsed,
    })
}

/// Publishes a gated run through the write-ahead journal as one commit
/// group ([`Publisher::commit`]), then saves the mapping state.
///
/// Every terminal verdict of the run — failures, released outputs, and
/// quarantined outputs with their digests — is journaled in
/// `run_manifest.json` in one durable write *before* any byte appears;
/// the bytes then publish in a deterministic order (released outputs
/// in corpus order, then quarantined outputs, then the leak report) —
/// which is what makes the `CONFANON_CRASH_AFTER` crash points
/// reproducible at any `--jobs` value. The mapping state (`state`: its
/// directory and the corpus watermarks) is captured and written last:
/// the outputs and the manifest are already durable, so a crash before
/// its write leaves a resumable run whose warm rerun replays back to the
/// identical mapping state.
fn publish_journaled(
    publisher: &mut Publisher<'_>,
    run: &GatedCorpusRun,
    quarantine_dir: Option<&Path>,
    state: Option<(&Path, &BTreeMap<String, String>)>,
) -> Result<(), AnonError> {
    let quarantined = outputs(run.quarantined.iter().map(|q| &q.output));
    publisher.commit(&CommitGroup {
        failed: run.failures.iter().map(|f| f.name.as_str()).collect(),
        released: outputs(run.clean.iter()),
        quarantined: quarantine_dir.map(|dir| (dir, quarantined)),
    })?;
    if let Some(qdir) = quarantine_dir {
        let report = qdir.join(LEAK_REPORT_FILE_NAME);
        publisher.write_report(&report, run.leak_report_json().to_string_pretty().as_bytes())?;
        eprintln!("leak report written to {}", report.display());
    }
    if let Some((dir, watermarks)) = state {
        // The state binds to the owner the journal binds to.
        let owner = publisher.manifest().secret_fingerprint.clone();
        let marks = file_marks(&run.discoveries, watermarks);
        let state = AnonState::capture(&run.anonymizer, owner, marks);
        let target = state_path(dir);
        publisher.write_report(&target, &state.to_bytes())?;
        eprintln!("state written to {}", target.display());
    }
    Ok(())
}

/// Without a journal (no output directory), the quarantine artifacts
/// still go through the atomic path: a torn leak report is as
/// misleading as a torn output.
fn write_quarantine(
    run: &GatedCorpusRun,
    quarantine_dir: Option<&Path>,
    durability: &mut DurabilityStats,
) -> Result<(), AnonError> {
    let Some(qdir) = quarantine_dir else {
        return Ok(());
    };
    for q in &run.quarantined {
        let target = qdir.join(format!("{}.anon", q.output.name));
        write_atomic(&StdFs, &target, q.output.text.as_bytes(), durability)?;
    }
    let report = qdir.join(LEAK_REPORT_FILE_NAME);
    let json = run.leak_report_json().to_string_pretty();
    write_atomic(&StdFs, &report, json.as_bytes(), durability)?;
    eprintln!("leak report written to {}", report.display());
    Ok(())
}

/// File name of the gate's report inside the quarantine directory.
const LEAK_REPORT_FILE_NAME: &str = "leak_report.json";

/// `(name, bytes)` of each output, in run order.
fn outputs<'r>(outputs: impl Iterator<Item = &'r BatchOutput>) -> Outputs<'r> {
    outputs
        .map(|o| (o.name.as_str(), o.text.as_bytes()))
        .collect()
}

/// Domain separator for per-network decoy seeds.
const DECOY_SEED_DOMAIN: &[u8] = b"confanon-decoy-seed\x00";

/// The rules `confanon audit --risk` ablates by default for the
/// tradeoff table: the two ASN rules whose loss the known-plaintext
/// attack prices directly.
pub const DEFAULT_SWEEP_RULES: [&str; 2] = ["router-bgp-asn", "neighbor-remote-as"];

/// Injects `per_network` NetCloak-style decoy routers into each
/// top-level network directory of `files`, returning the injected
/// names. Decoys are appended at the *end* of the corpus vector, so the
/// shared mapping state issued to every real file is untouched
/// (append-growth equivalence — the invariant `tests/incremental.rs`
/// pins) and real outputs stay byte-identical to a decoy-free run.
///
/// Each network's decoy set is a pure function of `(owner secret,
/// network name, per_network)` — seeded through the secret's manifest
/// fingerprint — so `--resume` and `--state` re-runs regenerate an
/// identical corpus. Names collide into the `zz-decoy-<i>.cfg` slot at
/// the end of each directory's sort order; a corpus that already holds
/// a file by that name keeps its own file (no decoy is injected there).
pub fn inject_decoys(
    files: &mut Vec<(String, String)>,
    secret: &[u8],
    per_network: usize,
) -> BTreeSet<String> {
    let mut injected = BTreeSet::new();
    if per_network == 0 {
        return injected;
    }
    let mut groups: Vec<String> = Vec::new();
    for (name, _) in files.iter() {
        let g = match name.split_once('/') {
            Some((head, _)) => head.to_string(),
            None => String::new(),
        };
        if !groups.contains(&g) {
            groups.push(g);
        }
    }
    let existing: BTreeSet<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let fingerprint = RunManifest::fingerprint(secret);
    for group in groups {
        let mut h = Sha1::new();
        h.update(DECOY_SEED_DOMAIN);
        h.update(fingerprint.as_bytes());
        h.update(group.as_bytes());
        let digest = h.finalize();
        let mut seed_bytes = [0u8; 8];
        seed_bytes.copy_from_slice(&digest[..8]);
        let seed = u64::from_be_bytes(seed_bytes);
        for (i, router) in generate_decoy_routers(seed, per_network).iter().enumerate() {
            let name = if group.is_empty() {
                format!("zz-decoy-{i}.cfg")
            } else {
                format!("{group}/zz-decoy-{i}.cfg")
            };
            if existing.contains(&name) {
                continue;
            }
            injected.insert(name.clone());
            files.push((name, router.config.clone()));
        }
    }
    injected
}

/// Inputs of one risk–utility audit (`confanon audit --risk`).
pub struct RiskAuditInput<'a> {
    /// The original (pre-anonymization) corpus, sanitized, in corpus
    /// order.
    pub pre: &'a [(String, String)],
    /// The released corpus under audit: `(corpus name, released text)`.
    pub post: &'a [(String, String)],
    /// Names in `post` flagged as decoys by the run manifest.
    pub decoys: &'a BTreeSet<String>,
    /// The owner secret the released corpus was anonymized under.
    pub secret: &'a [u8],
    /// Worker threads for the in-memory sweep re-anonymizations.
    pub jobs: usize,
    /// Attack battery knobs.
    pub opts: AuditOptions,
    /// Rule names to ablate, one tradeoff row each.
    pub sweep_rules: &'a [String],
    /// Decoys per network for the synthetic decoy row (0 = no row).
    pub decoy_sweep: usize,
}

/// Outcome of a risk–utility audit: the baseline battery, the sweep
/// rows, and the assembled `confanon-risk-v1` document.
pub struct RiskAudit {
    /// Battery outcome against the actual released bytes.
    pub baseline: AttackSuite,
    /// Sweep rows (rule ablations, scramble, decoys), in table order.
    pub rows: Vec<TradeoffRow>,
    /// The full report document.
    pub report: Json,
}

/// The hypothetical release of a re-anonymized corpus: every output the
/// pipeline produced, in corpus order, *including* gate-quarantined
/// bytes — a sweep row prices "what if these bytes shipped", which is
/// exactly the release the leak gate exists to refuse.
fn hypothetical_release(files: &[(String, String)], run: &GatedCorpusRun) -> Vec<(String, String)> {
    let mut by_name: BTreeMap<&str, &str> = BTreeMap::new();
    for o in &run.clean {
        by_name.insert(o.name.as_str(), o.text.as_str());
    }
    for q in &run.quarantined {
        by_name.insert(q.output.name.as_str(), q.output.text.as_str());
    }
    files
        .iter()
        .filter_map(|(name, _)| {
            by_name
                .get(name.as_str())
                .map(|text| (name.clone(), text.to_string()))
        })
        .collect()
}

/// One in-memory sweep re-anonymization: a cold gated run (no state to
/// restore, so it cannot fail).
fn sweep_run(files: &[(String, String)], cfg: AnonymizerConfig, jobs: usize) -> GatedCorpusRun {
    gated_run_on(
        BatchPipeline::new(cfg, jobs),
        files,
        &BTreeSet::new(),
        &BTreeMap::new(),
    )
}

/// Runs the full risk–utility audit: the attack battery against the
/// actual released corpus (the headline numbers), then one tradeoff row
/// per anonymization variant — each sweep re-anonymizes the original
/// corpus *in memory* with the variant's config and attacks the
/// hypothetical release:
///
/// * one row per name in `sweep_rules`, anonymized with that rule
///   disabled (unknown names are skipped — hostile reports must not
///   panic the audit);
/// * a `scramble` row under [`IpScheme::Scramble`], pricing what
///   structure destruction buys in risk and costs in utility;
/// * when `decoy_sweep > 0`, a `decoys:N` row with [`inject_decoys`]
///   chaff added before anonymization.
///
/// Pure of I/O and wall-clock, so the returned report is byte-identical
/// across runs and `--jobs` values.
pub fn risk_audit(input: &RiskAuditInput<'_>) -> RiskAudit {
    let baseline = run_suite(input.pre, input.post, input.decoys, input.secret, &input.opts);

    let mut rows = Vec::new();
    let no_decoys = BTreeSet::new();
    for rule_name in input.sweep_rules {
        let Some(rule) = RuleId::from_name(rule_name) else {
            continue;
        };
        let cfg = AnonymizerConfig::new(input.secret.to_vec()).without_rule(rule);
        let run = sweep_run(input.pre, cfg, input.jobs);
        let release = hypothetical_release(input.pre, &run);
        rows.push(TradeoffRow {
            label: format!("disable:{rule_name}"),
            disabled_rules: vec![rule_name.clone()],
            suite: run_suite(input.pre, &release, &no_decoys, input.secret, &input.opts),
        });
    }

    let mut scramble_cfg = AnonymizerConfig::new(input.secret.to_vec());
    scramble_cfg.ip_scheme = IpScheme::Scramble;
    let run = sweep_run(input.pre, scramble_cfg, input.jobs);
    let release = hypothetical_release(input.pre, &run);
    rows.push(TradeoffRow {
        label: "scramble".to_string(),
        disabled_rules: Vec::new(),
        suite: run_suite(input.pre, &release, &no_decoys, input.secret, &input.opts),
    });

    if input.decoy_sweep > 0 {
        let mut chaffed = input.pre.to_vec();
        let decoys = inject_decoys(&mut chaffed, input.secret, input.decoy_sweep);
        let run = sweep_run(
            &chaffed,
            AnonymizerConfig::new(input.secret.to_vec()),
            input.jobs,
        );
        let release = hypothetical_release(&chaffed, &run);
        rows.push(TradeoffRow {
            label: format!("decoys:{}", input.decoy_sweep),
            disabled_rules: Vec::new(),
            suite: run_suite(input.pre, &release, &decoys, input.secret, &input.opts),
        });
    }

    let report = build_risk_report(&input.opts, &baseline, &rows);
    RiskAudit {
        baseline,
        rows,
        report,
    }
}
