//! Chaos property suite: the fail-closed contract under hostile input.
//!
//! Three properties, each over seeded random corruption of realistic
//! configs ([`confanon_testkit::chaos`]):
//!
//! 1. **No panic escapes.** The gated pipeline completes on any mutated
//!    corpus, and — stronger — no real (non-injected) panic even needs
//!    containment: the hardened anonymizer handles hostile text itself.
//! 2. **No recorded identifier is released.** Every output the gate
//!    releases scans clean against the anonymizer's own leak record.
//! 3. **Determinism.** The same seed yields byte-identical released
//!    bytes, quarantine sets, and reports — at any worker count.

use confanon::core::{
    sanitize_bytes, write_atomic, AnonymizerConfig, DurabilityStats, LeakScanner,
};
use confanon::obs::{metrics_doc, validate_metrics};
use confanon::workflow::{anonymize_corpus_gated, GatedCorpusRun, GatedOptions};
use confanon_testkit::chaos::ChaosMutator;
use confanon_testkit::faultfs::FaultFs;
use confanon_testkit::json::Json;

/// Realistic base configs, kept small so each property case runs a
/// whole corpus.
fn base_corpus() -> Vec<(String, String)> {
    let ds = confanon::confgen::generate_dataset(&confanon::confgen::DatasetSpec {
        seed: 0x0C40_5BA5,
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

/// Mutates the base corpus under `seed` and repairs the bytes the way
/// the CLI's read path does.
fn chaos_corpus(seed: u64) -> Vec<(String, String)> {
    let mut mutator = ChaosMutator::new(seed);
    base_corpus()
        .into_iter()
        .map(|(name, text)| {
            let mutated = mutator.mutate(text.as_bytes());
            let (repaired, _) = sanitize_bytes(&mutated.bytes);
            (name, repaired)
        })
        .collect()
}

fn run(files: &[(String, String)], jobs: usize) -> GatedCorpusRun {
    let cfg = AnonymizerConfig::new(b"chaos-secret".to_vec());
    anonymize_corpus_gated(files, cfg, GatedOptions::jobs(jobs)).expect("cold run")
}

confanon_testkit::props! {
    cases = 8;

    /// Properties 1 and 2: the pipeline digests any mutated corpus with
    /// no contained (let alone escaped) panics, and nothing it releases
    /// contains a recorded identifier.
    fn no_panic_and_no_recorded_identifier_released(seed in 0u64..1_000_000) {
        let files = chaos_corpus(seed);
        let out = run(&files, 4);
        assert!(
            out.failures.is_empty(),
            "hostile input must not panic the hardened pipeline: {:?}",
            out.failures
        );
        for o in &out.clean {
            let scan = LeakScanner::scan_excluding(
                out.anonymizer.leak_record(),
                out.anonymizer.emitted_exclusions(),
                &o.text,
            );
            assert!(
                scan.is_clean(),
                "released output {} carries recorded identifiers: {:?}",
                o.name,
                scan.leaks
            );
        }
    }

    /// Property 3: same seed, same bytes — released, quarantined, and
    /// reported alike — regardless of worker count.
    fn deterministic_under_any_seed(seed in 0u64..1_000_000) {
        let files = chaos_corpus(seed);
        let a = run(&files, 1);
        let b = run(&files, 8);
        let view = |r: &GatedCorpusRun| {
            (
                r.clean.iter().map(|o| (o.name.clone(), o.text.clone())).collect::<Vec<_>>(),
                r.quarantined
                    .iter()
                    .map(|q| (q.output.name.clone(), q.output.text.clone()))
                    .collect::<Vec<_>>(),
                r.leak_report_json().to_string_pretty(),
            )
        };
        assert_eq!(view(&a), view(&b));
        // And an independent rerun of the same seed reproduces it all.
        let c = run(&chaos_corpus(seed), 8);
        assert_eq!(view(&a), view(&c));
    }

    /// Observability under hostility: whatever a mutated corpus does to
    /// the pipeline, the metrics document stays schema-valid, its corpus
    /// accounting sums, and quarantined/failed files land under their
    /// own keys — never silently folded into the released count.
    fn hostile_corpus_yields_a_valid_accounted_metrics_doc(seed in 0u64..1_000_000) {
        let files = chaos_corpus(seed);
        let out = run(&files, 4);
        let doc = metrics_doc(
            out.metrics_deterministic_json(),
            out.metrics_timing_json(),
        );
        // Round-trip through the parser, exactly as a reader would see it.
        let parsed = Json::parse(&doc.to_string_pretty()).expect("metrics must parse");
        validate_metrics(&parsed).expect("metrics must validate");

        let corpus = parsed
            .get("deterministic")
            .and_then(|d| d.get("corpus"))
            .expect("corpus accounting");
        let field = |k: &str| corpus.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing {k}"));
        assert_eq!(
            field("released_or_verified") + field("quarantined") + field("failed"),
            field("files_total"),
            "corpus accounting must sum: every input file ends in exactly one state"
        );
        assert_eq!(field("files_total"), files.len() as u64);
        assert_eq!(field("quarantined"), out.quarantined.len() as u64);
        assert_eq!(field("failed"), out.failures.len() as u64);
    }

    /// A fault-injecting filesystem cannot produce a torn metrics file:
    /// `write_atomic` either lands the whole schema-valid document at
    /// the target or leaves nothing there (modulo the staged temp file
    /// a failed rename legally abandons).
    fn faulted_metrics_write_is_never_torn(seed in 0u64..1_000_000) {
        let files = chaos_corpus(seed % 16); // a few distinct corpora suffice
        let out = run(&files, 2);
        let doc = metrics_doc(out.metrics_deterministic_json(), out.metrics_timing_json());
        let bytes = doc.to_string_pretty();

        let dir = std::env::temp_dir().join(format!(
            "confanon-chaos-metrics-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk scratch");
        let target = dir.join("metrics.json");
        let fs = FaultFs::new(seed);
        let mut stats = DurabilityStats::default();
        let result = write_atomic(&fs, &target, bytes.as_bytes(), &mut stats);

        match std::fs::read_to_string(&target) {
            Ok(on_disk) => {
                // Present ⇒ complete: the full document, parseable and valid.
                assert_eq!(on_disk, bytes, "metrics file on disk is torn");
                let parsed = Json::parse(&on_disk).expect("on-disk metrics must parse");
                validate_metrics(&parsed).expect("on-disk metrics must validate");
                assert!(
                    result.is_ok(),
                    "write reported failure but the target landed: {result:?}"
                );
            }
            Err(_) => assert!(
                result.is_err(),
                "write reported success but the target is absent"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The report schema round-trips through the in-tree JSON parser with
/// the documented summary fields intact.
#[test]
fn leak_report_round_trips_the_json_parser() {
    let files = chaos_corpus(7);
    let out = run(&files, 2);
    let text = out.leak_report_json().to_string_pretty();
    let parsed = confanon_testkit::json::Json::parse(&text).expect("valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("confanon-leak-report-v1")
    );
    for field in [
        "clean_files",
        "quarantined_files",
        "panic_contained_files",
        "total_leaks",
    ] {
        assert!(
            parsed.get(field).and_then(|v| v.as_u64()).is_some(),
            "missing {field}"
        );
    }
    assert!(parsed.get("quarantined").and_then(|v| v.as_array()).is_some());
    assert!(parsed.get("failures").and_then(|v| v.as_array()).is_some());
}

/// Raw (unsanitized) hostile bytes pushed straight into the pipeline —
/// bypassing the CLI's repair pass — still cannot panic it. This pins
/// the anonymizer's own tolerance, independent of `sanitize_bytes`.
#[test]
fn unsanitized_mutations_never_panic_the_anonymizer() {
    let base = base_corpus();
    let mut mutator = ChaosMutator::new(0xBAD_F00D);
    for round in 0..8 {
        let files: Vec<(String, String)> = base
            .iter()
            .map(|(name, text)| {
                let mutated = mutator.mutate(text.as_bytes());
                // Lossy conversion only — no control-char or line-length
                // repair at all.
                (
                    format!("{round}-{name}"),
                    String::from_utf8_lossy(&mutated.bytes).into_owned(),
                )
            })
            .collect();
        let out = run(&files, 3);
        assert!(out.failures.is_empty(), "round {round}: {:?}", out.failures);
    }
}

// ---- the red team under hostility ----------------------------------

// Whatever chaos does to the corpus, the risk audit holds its
// contract: the attack battery never panics, the assembled
// `confanon-risk-v1` document passes its own validator (which enforces
// that successes never exceed trials and every published rate is
// consistent with its counts), and the corpus accounting matches what
// the pipeline actually released.
confanon_testkit::props! {
    cases = 6;

    fn hostile_corpus_yields_a_valid_risk_report(seed in 0u64..1_000_000) {
        use confanon::redteam::{build_risk_report, run_suite, validate_risk_report, AuditOptions};

        let pre = chaos_corpus(seed);
        let out = run(&pre, 3);
        // A real release: only what the gate let through.
        let post: Vec<(String, String)> = out
            .clean
            .iter()
            .map(|o| (o.name.clone(), o.text.clone()))
            .collect();

        let opts = AuditOptions { seed, ..AuditOptions::default() };
        let no_decoys = std::collections::BTreeSet::new();
        let suite = run_suite(&pre, &post, &no_decoys, b"chaos-secret", &opts);
        let report = build_risk_report(&opts, &suite, &[]);
        validate_risk_report(&report).unwrap_or_else(|e| {
            panic!("seed {seed}: hostile corpus broke the risk report: {e}")
        });

        // The battery is replayable even on mutilated input.
        assert_eq!(
            suite,
            run_suite(&pre, &post, &no_decoys, b"chaos-secret", &opts),
            "seed {seed}: attack battery must be deterministic"
        );
        // Accounting: trials decompose exactly into the three attacks,
        // and every rate is a probability.
        assert_eq!(
            suite.attack_trials(),
            suite.prefix.trials + suite.degree.trials + suite.asn.trials,
            "seed {seed}: trial accounting must sum"
        );
        let overall = suite.risk_overall();
        assert!(
            (0.0..=1.0).contains(&overall),
            "seed {seed}: risk_overall {overall} out of range"
        );
        assert!(suite.prefix.successes <= suite.prefix.trials);
        assert!(suite.degree.successes <= suite.degree.trials);
        assert!(suite.asn.successes <= suite.asn.trials);
    }
}
