//! Whole-pipeline integration: generate networks, anonymize them, run
//! both validation suites, and scan for leaks against ground truth.
//!
//! This is the paper's §5 methodology executed end to end on the
//! synthetic dataset: a colleague with the originals runs the same tests
//! over both sides and checks for differences.

use confanon::confgen::{generate_dataset, DatasetSpec};
use confanon::workflow::{
    anonymize_network, audit_network, ground_truth_record, run_suite1, run_suite2,
};

fn test_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        seed,
        networks: 6,
        mean_routers: 6,
        backbone_fraction: 0.5,
    }
}

#[test]
fn suites_pass_and_no_leaks_across_networks() {
    let ds = generate_dataset(&test_spec(1));
    for (i, net) in ds.networks.iter().enumerate() {
        let secret = format!("owner-secret-{i}");
        let run = anonymize_network(net, secret.as_bytes());

        let s1 = run_suite1(net, &run);
        assert!(
            s1.passed(),
            "{}: suite1 differs in {:?}\npre={:?}\npost={:?}",
            net.name,
            s1.differing_fields,
            s1.pre,
            s1.post
        );

        let s2 = run_suite2(net, &run);
        assert!(
            s2.passed(),
            "{}: suite2 differs at routers {:?} (adjacency: {}, sessions: {})",
            net.name,
            s2.differing_routers,
            s2.adjacency_differs,
            s2.sessions_differ
        );

        let report = audit_network(net, &run);
        assert!(
            report.is_clean(),
            "{}: residual leaks: {:#?}",
            net.name,
            &report.leaks[..report.leaks.len().min(5)]
        );
    }
}

#[test]
fn anonymization_is_deterministic_per_secret() {
    let ds = generate_dataset(&test_spec(2));
    let net = &ds.networks[0];
    let a = anonymize_network(net, b"same-secret");
    let b = anonymize_network(net, b"same-secret");
    assert_eq!(a.anonymized, b.anonymized);
    let c = anonymize_network(net, b"other-secret");
    assert_ne!(a.anonymized, c.anonymized);
}

#[test]
fn ground_truth_never_survives_in_text() {
    // Belt and braces beyond the scanner: no owner word, carrier word, or
    // secret appears verbatim anywhere in the output.
    let ds = generate_dataset(&test_spec(3));
    let net = &ds.networks[0];
    let run = anonymize_network(net, b"s3");
    let text = run.anonymized.join("\n").to_ascii_lowercase();
    for w in net.ground_truth.owner_words.iter().chain(
        net.ground_truth
            .carrier_words
            .iter()
            .chain(&net.ground_truth.secrets),
    ) {
        assert!(
            !text.contains(&w.to_ascii_lowercase()),
            "{}: word {w:?} survived",
            net.name
        );
    }
}

#[test]
fn ablating_a_locator_is_caught_by_the_audit() {
    use confanon::core::leak::LeakScanner;
    use confanon::core::{Anonymizer, AnonymizerConfig, RuleId};

    let ds = generate_dataset(&test_spec(4));
    // Pick a network with eBGP peers.
    let net = ds
        .networks
        .iter()
        .find(|n| !n.ground_truth.peer_asns.is_empty())
        .expect("some network peers");
    let cfg = AnonymizerConfig::new(b"s4".to_vec())
        .without_rule(RuleId::R07NeighborRemoteAs)
        .without_rule(RuleId::R09AsPathAccessListRegex);
    let mut anon = Anonymizer::new(cfg);
    let text: String = net
        .routers
        .iter()
        .map(|r| anon.anonymize_config(&r.config).text)
        .collect();
    let record = ground_truth_record(net);
    let report = LeakScanner::scan_excluding(&record, anon.emitted_exclusions(), &text);
    assert!(
        !report.is_clean(),
        "{}: ablated locators should leak peers {:?}",
        net.name,
        net.ground_truth.peer_asns
    );
}

#[test]
fn cross_file_consistency_of_shared_identifiers() {
    // The same link subnet appears in two routers' configs; both sides
    // must map to the same anonymized subnet (suite 2 already checks this
    // via adjacency, but assert it directly too).
    let ds = generate_dataset(&test_spec(5));
    let net = &ds.networks[0];
    let run = anonymize_network(net, b"s5");
    let pre_design = confanon::design::extract_design(
        &net.routers
            .iter()
            .map(|r| confanon::iosparse::Config::parse(&r.config))
            .collect::<Vec<_>>(),
    );
    let post_design = confanon::workflow::post_design(&run);
    assert_eq!(pre_design.adjacencies, post_design.adjacencies);
    assert_eq!(
        pre_design.internal_bgp_sessions,
        post_design.internal_bgp_sessions
    );
}

#[test]
fn dual_stack_networks_validate_and_scan_clean() {
    // Find a dual-stacked network (IPv6 extension) and check the v6
    // structure is preserved and no v6 original survives.
    let ds = generate_dataset(&DatasetSpec {
        seed: 66,
        networks: 12,
        mean_routers: 8,
        backbone_fraction: 0.5,
    });
    let net = ds
        .networks
        .iter()
        .find(|n| !n.ground_truth.v6_addresses.is_empty())
        .expect("some network is dual-stacked");
    let run = anonymize_network(net, b"v6-e2e");
    let s1 = run_suite1(net, &run);
    assert!(s1.passed(), "{:?}", s1.differing_fields);
    assert!(s1.pre.ipv6_interfaces > 0, "v6 interfaces present");
    assert_eq!(s1.pre.ipv6_subnet_histogram, s1.post.ipv6_subnet_histogram);
    let audit = audit_network(net, &run);
    assert!(audit.is_clean(), "{:#?}", &audit.leaks[..audit.leaks.len().min(3)]);
    // And the originals are really gone.
    let text = run.anonymized.join("\n");
    for a in net.ground_truth.v6_addresses.iter().take(10) {
        assert!(!text.contains(a.as_str()), "{a} survived");
    }
}
