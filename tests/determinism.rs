//! Determinism contracts: "all identifiers must be anonymized in a
//! consistent manner" (§3.2) across re-runs, and the batch pipeline's
//! guarantee that worker count never changes a byte of output — even
//! when files fail mid-pipeline or the leak gate quarantines outputs.

use confanon::confgen::{generate_dataset, DatasetSpec};
use confanon::core::{
    sanitize_bytes, Anonymizer, AnonymizerConfig, BatchInput, BatchPhase, BatchPipeline, RuleId,
};
use confanon::workflow::{anonymize_corpus_gated, GatedCorpusRun, GatedOptions};
use confanon_testkit::chaos::ChaosMutator;

fn corpus() -> Vec<(String, String)> {
    let ds = generate_dataset(&DatasetSpec {
        seed: 0xDEAD_BEEF,
        networks: 1,
        mean_routers: 6,
        backbone_fraction: 0.5,
    });
    ds.networks[0]
        .routers
        .iter()
        .map(|r| (format!("{}.cfg", r.hostname), r.config.clone()))
        .collect()
}

/// A cold gated corpus run on `jobs` workers.
fn gated(files: &[(String, String)], cfg: AnonymizerConfig, jobs: usize) -> GatedCorpusRun {
    anonymize_corpus_gated(files, cfg, GatedOptions::jobs(jobs)).expect("cold run")
}

/// Re-running the anonymizer on the same network under the same secret
/// must reproduce the output byte for byte.
#[test]
fn same_network_same_secret_is_byte_identical() {
    let files = corpus();
    let run = |secret: &[u8]| {
        let mut a = Anonymizer::new(AnonymizerConfig::new(secret.to_vec()));
        files
            .iter()
            .map(|(_, t)| a.anonymize_config(t).text)
            .collect::<Vec<String>>()
    };
    let first = run(b"owner-secret");
    let second = run(b"owner-secret");
    assert_eq!(first, second);
    // And the keying matters: a different secret changes the output.
    assert_ne!(first, run(b"other-secret"));
}

/// The batch pipeline's headline guarantee, end to end: any worker count
/// produces the same bytes as one worker. (Every count runs the same
/// algorithm; `core::batch`'s oracle properties hold each to the
/// test-only sequential walk.)
#[test]
fn batch_output_independent_of_job_count() {
    let files = corpus();
    let inputs: Vec<BatchInput> = files
        .iter()
        .map(|(name, text)| BatchInput {
            name: name.clone(),
            text: text.clone(),
        })
        .collect();
    let cfg = || AnonymizerConfig::new(b"owner-secret".to_vec());
    let one = BatchPipeline::new(cfg(), 1).run(&inputs);
    for jobs in [2, 8] {
        let parallel = BatchPipeline::new(cfg(), jobs).run(&inputs);
        for (s, p) in one.outputs.iter().zip(&parallel.outputs) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.text, p.text, "jobs={jobs} diverged on {}", s.name);
        }
        assert_eq!(one.totals, parallel.totals);
    }
}

/// The workflow wrapper agrees with the plain per-file API — the batch
/// pipeline is a faster spelling of the same function, not a new one.
#[test]
fn corpus_workflow_matches_plain_sequential_api() {
    let files = corpus();
    let mut plain = Anonymizer::new(AnonymizerConfig::new(b"owner-secret".to_vec()));
    let expect: Vec<String> = files
        .iter()
        .map(|(_, t)| plain.anonymize_config(t).text)
        .collect();
    let run = gated(&files, AnonymizerConfig::new(b"owner-secret".to_vec()), 4);
    let got: Vec<&String> = run.clean.iter().map(|o| &o.text).collect();
    assert_eq!(expect.iter().collect::<Vec<_>>(), got);
    // The warmed anonymizer carries the same audit state.
    assert_eq!(
        plain.leak_record().asns,
        run.anonymizer.leak_record().asns
    );
    assert_eq!(plain.emitted_exclusions(), run.anonymizer.emitted_exclusions());
}

/// A discovery pass warms state without changing what a later emit
/// produces (cold emit == discover-then-emit), per file.
#[test]
fn warm_emit_equals_cold_emit() {
    let files = corpus();
    let mut cold = Anonymizer::new(AnonymizerConfig::new(b"owner-secret".to_vec()));
    let cold_out: Vec<String> = files
        .iter()
        .map(|(_, t)| cold.anonymize_config(t).text)
        .collect();

    let mut warm = Anonymizer::new(AnonymizerConfig::new(b"owner-secret".to_vec()));
    for (_, t) in &files {
        warm.discover_config(t);
    }
    let warm_out: Vec<String> = files
        .iter()
        .map(|(_, t)| warm.anonymize_config(t).text)
        .collect();

    assert_eq!(cold_out, warm_out);
}

/// A chaos-mutated corpus, sanitized the way the CLI sanitizes file
/// reads (the pipeline API takes `String`, so the byte-level repair
/// happens at the boundary).
fn chaos_corpus(seed: u64) -> Vec<(String, String)> {
    let mut mutator = ChaosMutator::new(seed);
    corpus()
        .into_iter()
        .map(|(name, text)| {
            let mutated = mutator.mutate(text.as_bytes());
            let (repaired, _) = sanitize_bytes(&mutated.bytes);
            (name, repaired)
        })
        .collect()
}

/// The full fail-closed result — released bytes, quarantine set, *and*
/// the failure report — must be byte-identical at any job count, even
/// over a hostile corpus with panicking files in the middle of it.
#[test]
fn chaos_corpus_identical_across_job_counts_including_failure_report() {
    let mut files = chaos_corpus(0xC4A0_5EED);
    // Plant deterministic panics in two files so the failure report has
    // entries whose ordering could diverge under racing workers.
    files[1].1.push_str("\nCHAOS-FAULT marker\n");
    files[4].1.push_str("\nCHAOS-FAULT marker\n");
    let cfg = || {
        let mut c = AnonymizerConfig::new(b"owner-secret".to_vec());
        c.fault_marker = Some(("CHAOS-FAULT".to_string(), BatchPhase::Rewrite));
        c
    };

    let reference = gated(&files, cfg(), 1);
    assert_eq!(reference.failures.len(), 2, "planted faults must fire");
    for jobs in [2, 8] {
        let run = gated(&files, cfg(), jobs);
        let names = |r: &GatedCorpusRun| {
            (
                r.clean.iter().map(|o| (o.name.clone(), o.text.clone())).collect::<Vec<_>>(),
                r.quarantined
                    .iter()
                    .map(|q| (q.output.name.clone(), q.output.text.clone()))
                    .collect::<Vec<_>>(),
                r.failures
                    .iter()
                    .map(|f| (f.name.clone(), f.phase, f.cause.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(names(&reference), names(&run), "jobs={jobs}");
        // Including the machine-readable report, byte for byte.
        assert_eq!(
            reference.leak_report_json().to_string_pretty(),
            run.leak_report_json().to_string_pretty(),
            "jobs={jobs}"
        );
    }
}

/// A fresh random corpus for property runs (distinct topology per seed).
fn seeded_corpus(seed: u64) -> Vec<(String, String)> {
    let ds = generate_dataset(&DatasetSpec {
        seed: seed ^ 0x5EED_CAFE,
        networks: 1,
        mean_routers: 5,
        backbone_fraction: 0.5,
    });
    ds.networks[0]
        .routers
        .iter()
        .map(|r| (format!("{}.cfg", r.hostname), r.config.clone()))
        .collect()
}

fn batch_inputs(files: &[(String, String)]) -> Vec<BatchInput> {
    files
        .iter()
        .map(|(name, text)| BatchInput {
            name: name.clone(),
            text: text.clone(),
        })
        .collect()
}

/// `(name, payload)` pairs: released outputs and reported failures.
type NamedPairs = Vec<(String, String)>;

/// `(name, bytes)` pairs plus the failure report — everything a manifest
/// is derived from (digests are a pure function of released bytes).
fn run_view(report: &confanon::core::BatchReport) -> (NamedPairs, NamedPairs) {
    (
        report
            .outputs
            .iter()
            .map(|o| (o.name.clone(), o.text.clone()))
            .collect(),
        report
            .failures
            .iter()
            .map(|f| (f.name.clone(), f.cause.clone()))
            .collect(),
    )
}

/// Warmed-anonymizer fingerprint: the state a resumed run would inherit.
fn state_view(p: &BatchPipeline) -> (Vec<String>, confanon::core::LeakRecord, (usize, usize)) {
    (
        p.anonymizer().emitted_exclusions(),
        p.anonymizer().leak_record().clone(),
        p.anonymizer().trie_node_counts(),
    )
}

confanon_testkit::props! {
    cases = 4;

    /// Discovery is one observe-merge-replay algorithm at every `--jobs`,
    /// so the one-shard run (`jobs = 1`, the calling thread alone) is the
    /// reference here and the shard layout is what varies: on random
    /// corpora, released bytes, rule-fire totals, and the warmed state
    /// that manifests and resumed runs are derived from are identical at
    /// every worker count. That the one-shard run equals a sequential
    /// walk is pinned by the oracle properties in `core::batch`.
    fn sharded_discovery_equals_sequential_on_random_corpora(seed in 0u64..1_000_000) {
        let files = seeded_corpus(seed);
        let inputs = batch_inputs(&files);
        let cfg = || AnonymizerConfig::new(b"owner-secret".to_vec());
        let mut reference = BatchPipeline::new(cfg(), 1);
        let ref_report = reference.run(&inputs);
        for jobs in [1usize, 2, 4, 8] {
            let mut sharded = BatchPipeline::new(cfg(), jobs);
            let report = sharded.run(&inputs);
            assert_eq!(run_view(&ref_report), run_view(&report), "jobs={jobs}");
            assert_eq!(ref_report.totals, report.totals, "jobs={jobs}");
            assert_eq!(
                state_view(&reference),
                state_view(&sharded),
                "warmed state diverged at jobs={jobs}"
            );
        }
    }

    /// The same equivalence over chaos-mutated corpora with a planted
    /// discovery-phase panic: the fail-closed path (who failed, with what
    /// cause, and what still got released) must not depend on the shard
    /// layout, one shard being the reference.
    fn sharded_discovery_equals_sequential_under_chaos(seed in 0u64..1_000_000) {
        let mut files = chaos_corpus(seed);
        files[2].1.push_str("\nCHAOS-FAULT marker\n");
        let inputs = batch_inputs(&files);
        let cfg = || {
            let mut c = AnonymizerConfig::new(b"owner-secret".to_vec());
            c.fault_marker = Some(("CHAOS-FAULT".to_string(), BatchPhase::Discover));
            c
        };
        let mut reference = BatchPipeline::new(cfg(), 1);
        let ref_report = reference.run(&inputs);
        assert!(!ref_report.failures.is_empty(), "planted fault must fire");
        for jobs in [2usize, 8] {
            let mut sharded = BatchPipeline::new(cfg(), jobs);
            let report = sharded.run(&inputs);
            assert_eq!(run_view(&ref_report), run_view(&report), "jobs={jobs}");
            assert_eq!(ref_report.totals, report.totals, "jobs={jobs}");
            assert_eq!(state_view(&reference), state_view(&sharded), "jobs={jobs}");
        }
    }
}

/// Golden fail-closed test: a leak planted by disabling a locator rule
/// (the §6.1 ablation experiment) is caught by the gate and quarantined —
/// the releasable set never contains the leaking bytes.
#[test]
fn planted_leak_is_quarantined_not_emitted() {
    // File A maps ASN 701 via `router bgp` (R06 records + maps it).
    // File B mentions 701 only as `remote-as`; with R07 ablated the
    // literal survives emission and the gate must catch it.
    let files = vec![
        (
            "a.cfg".to_string(),
            "router bgp 701\n neighbor 10.0.0.2 remote-as 701\n".to_string(),
        ),
        (
            "b.cfg".to_string(),
            "router bgp 65001\n neighbor 10.0.0.1 remote-as 701\n".to_string(),
        ),
    ];
    let cfg = AnonymizerConfig::new(b"owner-secret".to_vec()).without_rule(RuleId::R07NeighborRemoteAs);
    let run = gated(&files, cfg, 2);

    assert!(
        !run.quarantined.is_empty(),
        "ablated locator must trip the gate"
    );
    for q in &run.quarantined {
        assert!(q.output.text.contains("701"), "quarantine holds the leak");
        assert!(!q.report.is_clean());
    }
    for o in &run.clean {
        assert!(!o.text.contains("701"), "released bytes must be clean");
    }
    // The machine-readable report names the quarantined file and
    // round-trips through the JSON parser.
    let json = run.leak_report_json().to_string_pretty();
    let parsed = confanon_testkit::json::Json::parse(&json).expect("report parses");
    assert_eq!(
        parsed.get("quarantined_files").and_then(|v| v.as_u64()),
        Some(run.quarantined.len() as u64)
    );

    // With all 28 rules on, the same corpus passes the gate cleanly.
    let clean_run = gated(&files, AnonymizerConfig::new(b"owner-secret".to_vec()), 2);
    assert!(clean_run.quarantined.is_empty());
    assert_eq!(clean_run.clean.len(), files.len());
}
