//! Property suite for the risk–utility audit harness.
//!
//! Four contracts from the audit's design:
//!
//! 1. **Determinism.** For a fixed corpus, secret, and seed the full
//!    `confanon-risk-v1` report is byte-identical across repeats and
//!    across `--jobs` values — attack rates are replayable numbers, not
//!    samples.
//! 2. **Monotonicity.** Ablating an anonymization rule can only help
//!    the adversary: no attack rate in a `disable:*` tradeoff row drops
//!    below its baseline.
//! 3. **Decoys dilute.** NetCloak-style chaff strictly reduces
//!    prefix-structure fingerprinting success whenever the baseline
//!    attack succeeds at all.
//! 4. **Negative control.** Auditing a corpus released under a
//!    *different* secret scores the known-plaintext ASN attack at (or
//!    below) chance level — the red team's numbers measure the key,
//!    not an artifact of the harness.

use std::collections::BTreeSet;

use confanon::confgen::{generate_dataset, DatasetSpec};
use confanon::core::AnonymizerConfig;
use confanon::redteam::{rate, run_suite, validate_risk_report, AuditOptions};
use confanon::workflow::{
    anonymize_corpus_gated, risk_audit, GatedOptions, RiskAudit, RiskAuditInput,
    DEFAULT_SWEEP_RULES,
};

/// A small two-network corpus: enough structure for every attack to
/// have real trials, small enough that the audit's sweep
/// re-anonymizations stay fast.
fn corpus() -> Vec<(String, String)> {
    let ds = generate_dataset(&DatasetSpec {
        seed: 0xA0D1_7EA2,
        networks: 2,
        mean_routers: 3,
        backbone_fraction: 0.5,
    });
    ds.networks
        .iter()
        .flat_map(|n| {
            n.routers
                .iter()
                .map(move |r| (format!("{}/{}.cfg", n.name, r.hostname), r.config.clone()))
        })
        .collect()
}

/// Anonymizes `files` under `secret` and returns the released bytes,
/// requiring a clean (nothing quarantined, nothing panicked) run: the
/// audit properties are about released corpora.
fn release(files: &[(String, String)], secret: &[u8]) -> Vec<(String, String)> {
    let cfg = AnonymizerConfig::new(secret.to_vec());
    let run = anonymize_corpus_gated(files, cfg, GatedOptions::jobs(2)).expect("cold run");
    assert!(
        run.quarantined.is_empty() && run.failures.is_empty(),
        "fixture corpus must release cleanly"
    );
    run.clean
        .iter()
        .map(|o| (o.name.clone(), o.text.clone()))
        .collect()
}

fn sweep_rules() -> Vec<String> {
    DEFAULT_SWEEP_RULES.iter().map(|s| s.to_string()).collect()
}

fn audit(pre: &[(String, String)], post: &[(String, String)], secret: &[u8], jobs: usize) -> RiskAudit {
    let rules = sweep_rules();
    risk_audit(&RiskAuditInput {
        pre,
        post,
        decoys: &BTreeSet::new(),
        secret,
        jobs,
        opts: AuditOptions::default(),
        sweep_rules: &rules,
        decoy_sweep: 2,
    })
}

/// Property 1: the report is a pure function of (corpus, secret, seed)
/// — byte-identical across an independent rerun and across worker
/// counts — and always passes its own validator.
#[test]
fn risk_report_is_byte_identical_across_runs_and_jobs() {
    let pre = corpus();
    let secret = b"audit-prop-secret";
    let post = release(&pre, secret);

    let a = audit(&pre, &post, secret, 1);
    validate_risk_report(&a.report).expect("report must validate");

    let b = audit(&pre, &post, secret, 8);
    assert_eq!(
        a.report.to_string_pretty(),
        b.report.to_string_pretty(),
        "report must be byte-identical across --jobs"
    );

    // Fresh everything: regenerate the corpus and re-release.
    let pre2 = corpus();
    let post2 = release(&pre2, secret);
    let c = audit(&pre2, &post2, secret, 3);
    assert_eq!(
        a.report.to_string_pretty(),
        c.report.to_string_pretty(),
        "report must be byte-identical across independent reruns"
    );
}

/// Property 2: every `disable:*` row prices a strictly weaker
/// anonymizer, so no attack gets *harder* — each rate stays at or
/// above its baseline.
#[test]
fn disabling_rules_never_decreases_risk() {
    let pre = corpus();
    let secret = b"audit-mono-secret";
    let post = release(&pre, secret);
    let a = audit(&pre, &post, secret, 2);

    let base = &a.baseline;
    let mut ablation_rows = 0;
    for row in &a.rows {
        if !row.label.starts_with("disable:") {
            continue;
        }
        ablation_rows += 1;
        let s = &row.suite;
        assert!(
            rate(s.prefix.successes, s.prefix.trials)
                >= rate(base.prefix.successes, base.prefix.trials),
            "{}: prefix risk regressed below baseline",
            row.label
        );
        assert!(
            rate(s.degree.successes, s.degree.trials)
                >= rate(base.degree.successes, base.degree.trials),
            "{}: degree risk regressed below baseline",
            row.label
        );
        assert!(
            rate(s.asn.successes, s.asn.trials) >= rate(base.asn.successes, base.asn.trials),
            "{}: asn risk regressed below baseline",
            row.label
        );
    }
    assert_eq!(
        ablation_rows,
        DEFAULT_SWEEP_RULES.len(),
        "every default sweep rule must produce a tradeoff row"
    );
    // And the ablations are not a no-op: disabling the ASN rules must
    // let the known-plaintext attack recover something.
    assert!(
        a.rows
            .iter()
            .filter(|r| r.label.starts_with("disable:"))
            .any(|r| r.suite.asn.successes > base.asn.successes),
        "ablating the ASN rules must strictly increase ASN recovery"
    );
}

/// Property 3: the decoy row strictly reduces prefix-fingerprint
/// success relative to a baseline where the attack works.
#[test]
fn decoys_strictly_reduce_prefix_fingerprint_success() {
    let pre = corpus();
    let secret = b"audit-decoy-secret";
    let post = release(&pre, secret);
    let a = audit(&pre, &post, secret, 2);

    assert!(
        a.baseline.prefix.successes > 0,
        "baseline prefix fingerprinting must succeed on a structure-preserving \
         release (that is the residual risk the decoys exist to dilute)"
    );
    let decoy_row = a
        .rows
        .iter()
        .find(|r| r.label == "decoys:2")
        .expect("decoy sweep row");
    assert!(
        decoy_row.suite.prefix.successes < a.baseline.prefix.successes,
        "decoy chaff must strictly reduce exact prefix-fingerprint recovery \
         ({} -> {})",
        a.baseline.prefix.successes,
        decoy_row.suite.prefix.successes
    );
    assert!(decoy_row.suite.decoy_files > 0, "decoy row must count its chaff");
}

/// Property 4 (negative control): against a release produced under a
/// different secret, the known-plaintext ASN attack scores at or below
/// chance — and nothing survives in plaintext either way.
#[test]
fn wrong_secret_scores_at_chance_level() {
    let pre = corpus();
    let post_foreign = release(&pre, b"the-real-owner-secret");
    let suite = run_suite(
        &pre,
        &post_foreign,
        &BTreeSet::new(),
        b"the-auditors-wrong-guess",
        &AuditOptions::default(),
    );
    assert!(suite.asn.trials > 0, "the control needs real trials");
    assert!(
        rate(suite.asn.successes, suite.asn.trials) <= suite.asn.chance_level,
        "wrong-key ASN recovery must collapse to chance: {}/{} vs chance {}",
        suite.asn.successes,
        suite.asn.trials,
        suite.asn.chance_level
    );
    assert_eq!(
        suite.asn.plaintext_survivors, 0,
        "anonymized output must not carry plaintext public ASNs"
    );
}
