//! High-level workflows: anonymize a whole network and audit the result.
//!
//! These are the flows a network owner runs (paper §7's clearinghouse
//! vision): anonymize every router of a network with one keyed
//! [`Anonymizer`], scan the output against ground truth, and run both
//! validation suites pre vs post.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use confanon_confgen::{generate_decoy_routers, Network};
use confanon_core::leak::{LeakRecord, LeakReport, LeakScanner};
use confanon_core::publish::Outputs;
use confanon_core::{
    AnonError, AnonState, AnonymizationStats, Anonymizer, AnonymizerConfig, BatchFailure,
    BatchInput, BatchOutput, BatchPipeline, BatchReport, CommitGroup, FileDiscovery, IpScheme,
    Publisher, RunManifest, ALL_RULES,
};
use confanon_crypto::Sha1;
use confanon_design::RoutingDesign;
use confanon_iosparse::Config;
use confanon_obs::{Clock, ObsShard};
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

/// Everything produced by anonymizing one corpus of config files.
pub struct CorpusRun {
    /// Per-file outputs (input order) plus aggregate counters.
    pub report: BatchReport,
    /// The warmed anonymizer, retained for audits.
    pub anonymizer: Anonymizer,
}

/// Anonymizes a corpus of `(name, text)` config files under one owner
/// secret with `jobs` rewrite workers (`0` = logical core count).
///
/// All files share one keyed mapping state (§3.2 consistency across the
/// corpus) yet the emit work parallelizes: a sequential discovery pass
/// warms every mapping, then workers re-emit files concurrently from
/// clones of the warmed state. The output is byte-identical to a
/// sequential run for every `jobs` value — see
/// [`confanon_core::batch::BatchPipeline`].
pub fn anonymize_corpus(files: &[(String, String)], owner_secret: &[u8], jobs: usize) -> CorpusRun {
    let inputs: Vec<BatchInput> = files
        .iter()
        .map(|(name, text)| BatchInput {
            name: name.clone(),
            text: text.clone(),
        })
        .collect();
    let mut pipeline = BatchPipeline::new(AnonymizerConfig::new(owner_secret.to_vec()), jobs);
    let report = pipeline.run(&inputs);
    CorpusRun {
        report,
        anonymizer: pipeline.into_anonymizer(),
    }
}

/// Scans a corpus run's output against the anonymizer's own leak record
/// (the §6.1 self-audit), excluding legitimately emitted images.
pub fn audit_corpus(run: &CorpusRun) -> LeakReport {
    let text: Vec<&str> = run.report.outputs.iter().map(|o| o.text.as_str()).collect();
    LeakScanner::scan_excluding(
        run.anonymizer.leak_record(),
        run.anonymizer.emitted_exclusions(),
        &text.join("\n"),
    )
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

/// Anonymizes a corpus fail-closed: after the batch pipeline emits, every
/// output is individually scanned against the anonymizer's own leak
/// record (§6.1 made mandatory instead of advisory). Outputs with
/// residual hits are quarantined — returned separately, never mixed with
/// the releasable set. Takes a full [`AnonymizerConfig`] so ablation
/// experiments (`disabled_rules`) flow through the same gate the
/// production path uses.
pub fn anonymize_corpus_gated(
    files: &[(String, String)],
    cfg: AnonymizerConfig,
    jobs: usize,
) -> GatedCorpusRun {
    anonymize_corpus_gated_skipping(files, cfg, jobs, &BTreeSet::new())
}

/// [`anonymize_corpus_gated`] with a resume skip set: files named in
/// `skip` still participate in the discovery pass (the shared mapping
/// state is corpus-order dependent) but are neither re-emitted nor
/// re-scanned — their released bytes were already digest-verified on
/// disk by [`Publisher::resume`].
pub fn anonymize_corpus_gated_skipping(
    files: &[(String, String)],
    cfg: AnonymizerConfig,
    jobs: usize,
    skip: &BTreeSet<String>,
) -> GatedCorpusRun {
    anonymize_corpus_gated_clocked(files, cfg, jobs, skip, Clock::new())
}

/// [`anonymize_corpus_gated_skipping`] on an explicit [`Clock`]. The
/// clock is both the run's span timeline and the observability switch:
/// [`Clock::disabled`] strips every recording to a no-op, which is how
/// the overhead benchmark measures the instrumented-vs-stripped cost.
pub fn anonymize_corpus_gated_clocked(
    files: &[(String, String)],
    cfg: AnonymizerConfig,
    jobs: usize,
    skip: &BTreeSet<String>,
    clock: Clock,
) -> GatedCorpusRun {
    let pipeline = BatchPipeline::new(cfg, jobs).with_clock(clock);
    gated_run_on(pipeline, files, skip, &BTreeMap::new())
}

/// A warm start for [`anonymize_corpus_gated_stateful`]: the loaded
/// state document, the path it came from (for error attribution), and
/// the per-file discoveries whose content watermark matched — those
/// files are not scanned again.
pub struct WarmStart<'a> {
    /// Loaded and owner-checked `confanon-state-v1` document.
    pub state: &'a AnonState,
    /// Path the state was loaded from, used in error messages.
    pub state_file: &'a str,
    /// Watermark-matched files and their stored discovery contributions.
    pub prewarmed: &'a BTreeMap<String, FileDiscovery>,
}

/// [`anonymize_corpus_gated_clocked`] warm-started from a persisted
/// anonymizer state (`confanon batch --state DIR`): the state's
/// identifier journal is replayed into the fresh pipeline *before*
/// discovery (restoring every previously-issued mapping), and files in
/// [`WarmStart::prewarmed`] — whose content watermark matched the state
/// — are not scanned at all; their stored per-file contributions are
/// absorbed instead so the deterministic metrics match a cold run.
/// Returns the run plus the restored (v4, v6) trie node counts. Fails
/// only if the state's journal does not rebuild the tries it claims
/// ([`AnonError::StateInvalid`]); owner/version validation happens at
/// load time.
pub fn anonymize_corpus_gated_stateful(
    files: &[(String, String)],
    cfg: AnonymizerConfig,
    jobs: usize,
    skip: &BTreeSet<String>,
    clock: Clock,
    warm: WarmStart<'_>,
) -> Result<(GatedCorpusRun, (u64, u64)), AnonError> {
    let mut pipeline = BatchPipeline::new(cfg, jobs).with_clock(clock);
    let restored = warm
        .state
        .restore_into(warm.state_file, pipeline.anonymizer_mut())?;
    Ok((gated_run_on(pipeline, files, skip, warm.prewarmed), restored))
}

/// The shared gated-run body: batch pipeline (with optional prewarmed
/// skip map), then the §6.1 per-output leak gate.
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
    }
}

/// What a journaled publish step released, in summary form.
pub struct PublishSummary {
    /// Files released this run (skipped files are not re-released).
    pub released: usize,
    /// Files whose bytes were diverted to quarantine.
    pub quarantined: usize,
    /// Panic-contained files journaled as `failed`.
    pub failed: usize,
}

/// Publishes a gated run through the write-ahead journal as one commit
/// group ([`Publisher::commit`]).
///
/// Every terminal verdict of the run — failures, released outputs, and
/// quarantined outputs with their digests — is journaled in
/// `run_manifest.json` in one durable write *before* any byte appears;
/// the bytes then publish in a deterministic order (released outputs
/// in corpus order, then quarantined outputs, then the leak report) —
/// which is what makes the `CONFANON_CRASH_AFTER` crash points
/// reproducible at any `--jobs` value. Quarantined bytes and
/// `leak_report.json` go to `quarantine_dir` when given; pass `None`
/// only when the gate is known clean and no quarantine artifacts were
/// requested.
pub fn publish_gated_run(
    publisher: &mut Publisher<'_>,
    run: &GatedCorpusRun,
    quarantine_dir: Option<&Path>,
) -> Result<PublishSummary, AnonError> {
    let quarantined = outputs(run.quarantined.iter().map(|q| &q.output));
    publisher.commit(&CommitGroup {
        failed: run.failures.iter().map(|f| f.name.as_str()).collect(),
        released: outputs(run.clean.iter()),
        quarantined: quarantine_dir.map(|dir| (dir, quarantined)),
    })?;
    if let Some(qdir) = quarantine_dir {
        publisher.write_report(
            &qdir.join("leak_report.json"),
            run.leak_report_json().to_string_pretty().as_bytes(),
        )?;
    }
    Ok(PublishSummary {
        released: run.clean.len(),
        quarantined: run.quarantined.len(),
        failed: run.failures.len(),
    })
}

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
        let Some(rule) = ALL_RULES.iter().find(|r| r.name == *rule_name) else {
            continue;
        };
        let cfg = AnonymizerConfig::new(input.secret.to_vec()).without_rule(rule.id);
        let run = anonymize_corpus_gated(input.pre, cfg, input.jobs);
        let release = hypothetical_release(input.pre, &run);
        rows.push(TradeoffRow {
            label: format!("disable:{rule_name}"),
            disabled_rules: vec![rule_name.clone()],
            suite: run_suite(input.pre, &release, &no_decoys, input.secret, &input.opts),
        });
    }

    let mut scramble_cfg = AnonymizerConfig::new(input.secret.to_vec());
    scramble_cfg.ip_scheme = IpScheme::Scramble;
    let run = anonymize_corpus_gated(input.pre, scramble_cfg, input.jobs);
    let release = hypothetical_release(input.pre, &run);
    rows.push(TradeoffRow {
        label: "scramble".to_string(),
        disabled_rules: Vec::new(),
        suite: run_suite(input.pre, &release, &no_decoys, input.secret, &input.opts),
    });

    if input.decoy_sweep > 0 {
        let mut chaffed = input.pre.to_vec();
        let decoys = inject_decoys(&mut chaffed, input.secret, input.decoy_sweep);
        let run = anonymize_corpus_gated(&chaffed, AnonymizerConfig::new(input.secret.to_vec()), input.jobs);
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

/// Anonymizes every network of a dataset in parallel (one thread per
/// network, capped at the logical core count).
///
/// Parallelism is *across* networks: each network must be mapped by one
/// consistent keyed state (§3.2), so the trie is never shared — the
/// paper's observation that Xu's stateless scheme parallelizes trivially
/// while the table scheme does not applies *within* a network, and the
/// natural unit of work at clearinghouse scale is the network anyway.
/// Returns per-network results in input order.
pub fn anonymize_dataset_parallel(
    networks: &[Network],
    secret_for: impl Fn(usize) -> Vec<u8> + Sync,
) -> Vec<NetworkRun> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut results: Vec<Option<NetworkRun>> = Vec::new();
    results.resize_with(networks.len(), || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut results);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(networks.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= networks.len() {
                    break;
                }
                let run = anonymize_network(&networks[i], &secret_for(i));
                // Slot writes are index-disjoint, so a sibling's panic
                // leaves no broken invariant behind the lock: recover it.
                let mut guard = results_mutex.lock().unwrap_or_else(|e| e.into_inner());
                guard[i] = Some(run);
            });
        }
    });

    results.into_iter().flatten().collect()
}
