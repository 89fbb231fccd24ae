//! Per-rule tests for the 12 ASN locators (R06–R17).
//!
//! §4.4: "A list of 12 rules is used to locate all the ASNs and ASN
//! regular expressions in the configuration files — this is the most
//! fragile part of our method since ASNs are syntactically
//! indistinguishable from simple integers." Each locator gets a positive
//! test (the ASN moves), a negative test (nearby plain integers do not),
//! and an ablation test (disabling the rule leaks).

#![cfg(test)]

use crate::anonymizer::{Anonymizer, AnonymizerConfig};
use crate::rules::RuleId;

fn anon() -> Anonymizer {
    Anonymizer::new(AnonymizerConfig::new(b"locator-tests".to_vec()))
}

fn image(asn: u16) -> String {
    anon().asn_map().map(asn).to_string()
}

fn run(line: &str) -> String {
    let mut a = anon();
    a.anonymize_config(line).text
}

#[test]
fn r06_router_bgp() {
    let out = run("router bgp 701\n");
    assert_eq!(out.trim(), format!("router bgp {}", image(701)));
}

#[test]
fn r06_match_source_protocol_maps_the_asn_after_every_bgp() {
    // BGP first, after another protocol, or twice: each ASN after `bgp`
    // moves, and the OSPF process id and the EIGRP AS number stay.
    let (i702, i703) = (image(702), image(703));
    for (line, want) in [
        (" match source-protocol bgp 702\n", format!("bgp {i702}")),
        (
            " match source-protocol ospf 1 bgp 702\n",
            format!("ospf 1 bgp {i702}"),
        ),
        (
            " match source-protocol eigrp 100 bgp 702 connected bgp 703\n",
            format!("eigrp 100 bgp {i702} connected bgp {i703}"),
        ),
    ] {
        let mut a = anon();
        let out = a.anonymize_config(line);
        assert!(out.text.contains(&want), "{line:?} -> {:?}", out.text);
        assert!(out.stats.fires(RuleId::R06RouterBgpAsn) > 0, "{line:?}");
    }
    // With no BGP on the line, R06 maps nothing and does not fire.
    for line in [
        " match source-protocol ospf 1\n",
        " match source-protocol bgp\n",
    ] {
        let mut a = anon();
        let out = a.anonymize_config(line);
        assert_eq!(out.text, line, "{line:?}");
        assert_eq!(out.stats.fires(RuleId::R06RouterBgpAsn), 0, "{line:?}");
    }
}

#[test]
fn r07_neighbor_remote_as() {
    let out = run(" neighbor 9.9.9.9 remote-as 1239\n");
    assert!(out.contains(&format!("remote-as {}", image(1239))), "{out}");
}

#[test]
fn r07_alternate_as_maps_every_alternate() {
    // With and without the `remote-as` in front; `alternate-as` itself
    // survives as a keyword, and a public 4-byte alternate is recorded.
    let (i702, i703, i704) = (image(702), image(703), image(704));
    for (line, want) in [
        (
            " neighbor 9.9.9.9 remote-as 702 alternate-as 703 704
",
            format!("remote-as {i702} alternate-as {i703} {i704}"),
        ),
        (
            " neighbor 9.9.9.9 alternate-as 703 704
",
            format!("alternate-as {i703} {i704}"),
        ),
    ] {
        let mut a = anon();
        let out = a.anonymize_config(line).text;
        assert!(out.contains(&want), "{out}");
        assert!(a.leak_record().asns.contains("703"), "{out}");
    }
    let mut a = anon();
    a.anonymize_config(" neighbor 9.9.9.9 remote-as 702 alternate-as 262144\n");
    assert!(a.leak_record().asns.contains("262144"));
}

#[test]
fn r08_as_path_prepend_maps_every_asn() {
    let out = run(" set as-path prepend 701 701 1239\n");
    let i701 = image(701);
    let i1239 = image(1239);
    assert_eq!(
        out.trim(),
        format!("set as-path prepend {i701} {i701} {i1239}")
    );
}

#[test]
fn r10_confederation_identifier() {
    let out = run(" bgp confederation identifier 7018\n");
    assert!(out.contains(&image(7018)), "{out}");
    assert!(!out.contains("7018"), "{out}");
}

#[test]
fn r11_confederation_peers_all_mapped() {
    let out = run(" bgp confederation peers 65100 701 1239\n");
    // Private confederation member ASNs stay; public ones map.
    assert!(out.contains("65100"), "{out}");
    assert!(out.contains(&image(701)), "{out}");
    assert!(out.contains(&image(1239)), "{out}");
}

#[test]
fn r15_neighbor_local_as() {
    let out = run(" neighbor 9.9.9.9 local-as 3356\n");
    assert!(out.contains(&format!("local-as {}", image(3356))), "{out}");
}

#[test]
fn r16_listen_range_remote_as() {
    let out = run(" bgp listen range 10.5.0.0/16 peer-group CUST remote-as 174\n");
    assert!(out.contains(&format!("remote-as {}", image(174))), "{out}");
    assert!(!out.ends_with("174\n"), "{out}");
    // The prefix token also moved (R23).
    assert!(!out.contains("10.5.0.0/16"), "{out}");
    assert!(out.contains("/16"), "{out}");
}

#[test]
fn r17_extcommunity_route_targets() {
    let mut a = anon();
    let out = a.anonymize_config(" set extcommunity rt 701:100 1239:200\n").text;
    let ma = a.asn_map().map(701);
    let mb = a.asn_map().map(1239);
    assert!(out.contains(&format!("{ma}:")), "{out}");
    assert!(out.contains(&format!("{mb}:")), "{out}");
    assert!(!out.contains("701:100"), "{out}");
}

#[test]
fn plain_integers_near_locators_do_not_move() {
    // Sequence numbers, timers, ACL numbers: simple integers are not
    // anonymized (§4.1).
    for line in [
        "route-map X permit 701\n",          // a sequence number that looks like UUNET
        " timers bgp 701 2103\n",            // keepalive/hold timers
        "access-list 701 permit ip any any\n", // (invalid number, still not an ASN position)
        " match as-path 701\n",              // a *list reference*, not an ASN
        " set as-path prepend last-as 701\n", // a repeat count, not an ASN
    ] {
        let out = run(line);
        assert!(out.contains("701"), "{line:?} -> {out:?} moved a plain integer");
    }
}

#[test]
fn every_locator_ablation_leaks() {
    let cases: &[(RuleId, &str)] = &[
        (RuleId::R06RouterBgpAsn, "router bgp 701\n"),
        (RuleId::R07NeighborRemoteAs, " neighbor 9.9.9.9 remote-as 701\n"),
        (RuleId::R08AsPathPrepend, " set as-path prepend 701\n"),
        (RuleId::R10ConfederationIdentifier, " bgp confederation identifier 701\n"),
        (RuleId::R11ConfederationPeers, " bgp confederation peers 701\n"),
        (RuleId::R15NeighborLocalAs, " neighbor 9.9.9.9 local-as 701\n"),
        (
            RuleId::R16BgpListenRange,
            " bgp listen range 10.0.0.0/8 peer-group X remote-as 701\n",
        ),

        (
            RuleId::R09AsPathAccessListRegex,
            "ip as-path access-list 50 permit _701_\n",
        ),
        (
            RuleId::R12CommunityListPattern,
            "ip community-list 100 permit 701:7[1-5]..\n",
        ),
        (RuleId::R14CommunityAttributeToken, " something 701:120\n"),
    ];
    for (rule, line) in cases {
        let mut a = Anonymizer::new(
            AnonymizerConfig::new(b"locator-tests".to_vec()).without_rule(*rule),
        );
        let out = a.anonymize_config(line).text;
        assert!(
            out.contains("701"),
            "{rule:?} ablated but {line:?} still anonymized: {out:?}"
        );
        // And with the rule on, the same line is clean.
        let mut b = anon();
        let out = b.anonymize_config(line).text;
        assert!(
            !out.contains("701"),
            "{rule:?} enabled but {line:?} leaked: {out:?}"
        );
    }
}

#[test]
fn community_rules_are_defense_in_depth() {
    // Ablating R13 (`set community`) or R17 (`set extcommunity`) alone
    // does NOT leak: the global community-token rule R14 backstops them.
    // Only ablating the context rule *and* the backstop leaks — the
    // layered conservatism of §4.1.
    for (ctx_rule, line) in [
        (RuleId::R13SetCommunity, " set community 701:120\n"),
        (RuleId::R17ExtCommunityContext, " set extcommunity rt 701:9\n"),
    ] {
        let mut only_ctx = Anonymizer::new(
            AnonymizerConfig::new(b"locator-tests".to_vec()).without_rule(ctx_rule),
        );
        let out = only_ctx.anonymize_config(line).text;
        assert!(!out.contains("701"), "{ctx_rule:?}: R14 backstop failed: {out:?}");

        let mut both = Anonymizer::new(
            AnonymizerConfig::new(b"locator-tests".to_vec())
                .without_rule(ctx_rule)
                .without_rule(RuleId::R14CommunityAttributeToken),
        );
        let out = both.anonymize_config(line).text;
        assert!(out.contains("701"), "{ctx_rule:?}+R14 ablated but clean: {out:?}");
    }
}

#[test]
fn twelve_locators_exist() {
    use crate::rules::{RuleCategory, ALL_RULES};
    let locators: Vec<&str> = ALL_RULES
        .iter()
        .filter(|r| r.category == RuleCategory::AsnLocation)
        .map(|r| r.name)
        .collect();
    assert_eq!(locators.len(), 12, "{locators:?}");
}

#[test]
fn well_known_communities_survive_symbolically() {
    // `set community no-export` / `internet` / `additive`: symbolic
    // well-known values are keywords, not identity, and must survive.
    let out = run(" set community no-export additive\n");
    assert_eq!(out.trim(), "set community no-export additive");
    let out = run(" set community internet\n");
    assert_eq!(out.trim(), "set community internet");
}

#[test]
fn community_list_with_symbolic_member_unchanged() {
    // A standard community-list naming a well-known community parses as
    // neither a literal pair nor a numeric regexp atom; it passes through
    // structurally (the `no-export` keywords are pass-listed).
    let out = run("ip community-list 5 permit no-export\n");
    assert_eq!(out.trim(), "ip community-list 5 permit no-export");
}

#[test]
fn compact_rewriting_end_to_end() {
    // The §4.4 extension switched on: Figure 1 anonymizes with compacted
    // regexps; the language is still exactly the image set.
    let mut cfg = AnonymizerConfig::new(b"compact-e2e".to_vec());
    cfg.compact_regexps = true;
    let mut a = Anonymizer::new(cfg);
    let out = a.anonymize_config(crate::figure1::FIGURE1_CONFIG);
    let line = out
        .text
        .lines()
        .find(|l| l.starts_with("ip as-path access-list"))
        .expect("as-path line");
    let pattern = line.splitn(6, ' ').nth(5).unwrap().trim();
    let re = confanon_regexlang::Regex::compile(pattern).expect("compact output parses");
    for asn in [1239u16, 702, 703, 704, 705] {
        assert!(
            re.is_match(&a.asn_map().map(asn).to_string()),
            "{asn} image rejected by compact {pattern}"
        );
    }
    assert!(!re.is_match(&a.asn_map().map(706).to_string()));
    // The compacted community rewrite must be no longer than the plain
    // alternation produced without the option.
    let mut plain = Anonymizer::new(AnonymizerConfig::new(b"compact-e2e".to_vec()));
    let plain_out = plain.anonymize_config(crate::figure1::FIGURE1_CONFIG);
    let len = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("ip community-list"))
            .map(|l| l.len())
            .unwrap_or(0)
    };
    assert!(len(&out.text) <= len(&plain_out.text));
}

#[test]
fn ipv6_literals_and_prefixes_map() {
    // Post-paper extension: RFC 4291 forms map through the 128-bit trie
    // with the same guarantees.
    let mut a = anon();
    let out = a.anonymize_config(
        "interface GigabitEthernet0/0\n ipv6 address 2001:db8:1:2::1/64\nipv6 route 2001:db8:1::/48 2001:db8:1:2::9\n",
    );
    let text = out.text;
    assert!(!text.contains("2001:db8"), "{text}");
    assert!(text.contains("ipv6 address"), "keyword lost: {text}");
    assert!(text.contains("ipv6 route"), "keyword lost: {text}");
    assert!(text.contains("/64") && text.contains("/48"), "{text}");
    assert_eq!(out.stats.ips6_mapped, 3);
    // Prefix preservation: the /48 route prefix must still contain the
    // interface address after anonymization.
    let toks: Vec<&str> = text.split_whitespace().collect();
    let iface: confanon_netprim::Ip6 = toks
        .iter()
        .find(|t| t.ends_with("/64"))
        .unwrap()
        .trim_end_matches("/64")
        .parse()
        .unwrap();
    let route: confanon_netprim::Prefix6 = toks
        .iter()
        .find(|t| t.ends_with("/48"))
        .unwrap()
        .parse()
        .unwrap();
    assert!(route.contains(iface), "{route} !contains {iface}");
}

#[test]
fn ipv6_specials_pass_through() {
    let out = run(" ipv6 address fe80::1 link-local\nipv6 route ::/0 fe80::2\n");
    assert!(out.contains("fe80::1"), "{out}");
    assert!(out.contains("::/0"), "{out}");
}

#[test]
fn ipv6_consistency_across_files() {
    let mut a = anon();
    let o1 = a.anonymize_config("ipv6 route 2001:db8::/32 Null0\n");
    let o2 = a.anonymize_config(" ipv6 address 2001:db8::9/128\n");
    let p1 = o1
        .text
        .split_whitespace()
        .find(|t| t.ends_with("/32"))
        .unwrap()
        .trim_end_matches("/32")
        .to_string();
    let a2 = o2
        .text
        .split_whitespace()
        .find(|t| t.ends_with("/128"))
        .unwrap()
        .trim_end_matches("/128")
        .parse::<confanon_netprim::Ip6>()
        .unwrap();
    let p1: confanon_netprim::Ip6 = p1.parse().unwrap();
    assert!(p1.common_prefix_len(a2) >= 32, "{p1} vs {a2}");
}

#[test]
fn all_28_rules_fire_on_a_comprehensive_config() {
    // One config that exercises every rule class; the stats must show
    // all 28 rule names firing (R28 fires implicitly via recording; it
    // has no counter of its own, so it is checked via the record).
    let config = "\
hostname cr1.lax.foo.com
! a comment about global crossing
banner motd ^C
contact noc@foo.com
^C
interface Serial1/0.5
 description secret site
 ip address 1.1.1.1 255.255.255.0
 ipv6 address 2001:db8::1/64
router bgp 1111
 bgp confederation identifier 1111
 bgp confederation peers 65100 702
 bgp listen range 10.0.0.0/8 peer-group CUST remote-as 3356
 neighbor 9.9.9.9 remote-as 701
 neighbor 9.9.9.9 local-as 1112
route-map X permit 10
 set as-path prepend 1111 1111
 set community 701:120
 set extcommunity rt 701:99
ip as-path access-list 50 permit _70[1-5]_
ip community-list 100 permit 701:7[1-5]..
ip prefix-list PL seq 5 permit 10.2.0.0/16
dialer string 14155551234
ip domain-name foo.com
snmp-server community s3cr3t RO
ntp server time.foo.com
access-list 10 permit 10.2.3.0 0.0.0.255
something 702:44
";
    let mut a = anon();
    let out = a.anonymize_config(config);
    use crate::rules::ALL_RULES;
    let mut missing: Vec<&str> = Vec::new();
    for r in &ALL_RULES {
        // R28 (leak highlighting) manifests as a populated record, not a
        // fire counter.
        if r.name == "leak-highlighting" {
            continue;
        }
        if out.stats.fires(r.id) == 0 {
            missing.push(r.name);
        }
    }
    assert!(missing.is_empty(), "rules never fired: {missing:?}\n{out:#?}");
    assert!(!a.leak_record().is_empty(), "R28 recorded nothing");
}

#[test]
fn large_communities_are_anonymized() {
    // RFC 8092 `GlobalAdmin:Data1:Data2` — post-paper attribute whose
    // admin half is an ASN.
    let out = run(" set large-community 64496:1:2 199999:7:8\n");
    assert!(!out.contains("64496:1:2"), "{out}");
    assert!(!out.contains("199999:7:8"), "{out}");
    // Shape preserved: still three colon-separated decimal fields.
    for tok in out.split_whitespace().filter(|t| t.contains(':')) {
        assert_eq!(tok.split(':').count(), 3, "{tok}");
        for f in tok.split(':') {
            assert!(f.bytes().all(|b| b.is_ascii_digit()), "{tok}");
        }
    }
}
