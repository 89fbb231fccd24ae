//! Interned regexp rewrites change nothing observable.
//!
//! A batch enumerates each distinct as-path or community regexp once:
//! discovery interns the rewrite, the rewrite clones inherit it, and at
//! `--jobs N` the shard memos merge. Anonymizing every file with a fresh
//! anonymizer, whose memo starts empty, must give the same outputs, the
//! same per-file statistics, the same leak record, and the same emitted
//! exclusions — at one worker and at four.

use std::collections::BTreeSet;

use confanon::core::{
    AnonymizationStats, Anonymizer, AnonymizerConfig, BatchInput, BatchPipeline, LeakRecord,
};

/// Eight routers whose regexps repeat across files and within a file,
/// plus one pattern per file and an unparseable pattern everywhere. One
/// pattern text alternates between the two domains (even routers use it
/// as a community regexp, odd ones as an as-path regexp), whose rewrites
/// differ. No addresses: the address tries depend on insertion order
/// across files, while every ASN, community, and hash mapping here is
/// stateless, so a fresh anonymizer per file is a fair reference.
fn corpus() -> Vec<BatchInput> {
    (0..8)
        .map(|i| {
            let both_domains = if i % 2 == 0 {
                "ip community-list 6 permit ^3356:2[0-9]$"
            } else {
                "ip as-path access-list 14 permit ^3356:2[0-9]$"
            };
            let text = format!(
                "hostname edge{i}\n\
                 router bgp 701\n\
                 ip as-path access-list 10 permit _701_\n\
                 ip as-path access-list 11 permit ^(1239|3356)_[0-9]+$\n\
                 ip as-path access-list 12 permit _70{i}_\n\
                 ip as-path access-list 13 permit _(70[0-9]_\n\
                 ip community-list 5 permit ^701:1[0-9][0-9]$\n\
                 ip community-list expanded PEERS permit ^(1239|7018):[0-9]+$\n\
                 {both_domains}\n\
                 route-map OUT permit 10\n\
                 \x20set community 701:120 additive\n\
                 ip as-path access-list 10 permit _701_\n"
            );
            BatchInput {
                name: format!("net/edge{i}.cfg"),
                text,
            }
        })
        .collect()
}

#[test]
fn interned_regexp_rewrites_match_fresh_anonymizers_at_any_job_count() {
    let cfg = AnonymizerConfig::new(b"regex-memo-secret".to_vec());
    let inputs = corpus();

    let mut want_record = LeakRecord::default();
    let mut want_emitted = BTreeSet::new();
    let mut want_totals = AnonymizationStats::default();
    let want: Vec<(String, String, AnonymizationStats)> = inputs
        .iter()
        .map(|f| {
            let mut fresh = Anonymizer::new(cfg.clone());
            let out = fresh.anonymize_config(&f.text);
            want_record.merge(fresh.leak_record());
            want_emitted.extend(fresh.emitted_exclusions());
            want_totals.merge(&out.stats);
            (f.name.clone(), out.text, out.stats)
        })
        .collect();
    assert_eq!(
        want_totals.regexps_rewritten,
        8 * 7,
        "six parseable lines, one twice"
    );
    assert_eq!(
        want_totals.regexps_fallback_hashed, 8,
        "the unparseable pattern"
    );
    let want_emitted: Vec<String> = want_emitted.into_iter().collect();

    for jobs in [1, 4] {
        let mut pipeline = BatchPipeline::new(cfg.clone(), jobs);
        let report = pipeline.run(&inputs);
        assert!(report.failures.is_empty(), "jobs={jobs}");
        let got: Vec<(String, String, AnonymizationStats)> = report
            .outputs
            .iter()
            .map(|o| (o.name.clone(), o.text.clone(), o.stats.clone()))
            .collect();
        assert_eq!(got, want, "jobs={jobs}: outputs or per-file stats differ");
        assert_eq!(report.totals, want_totals, "jobs={jobs}");
        let anonymizer = pipeline.anonymizer();
        assert_eq!(*anonymizer.leak_record(), want_record, "jobs={jobs}");
        assert_eq!(anonymizer.emitted_exclusions(), want_emitted, "jobs={jobs}");
    }
}
