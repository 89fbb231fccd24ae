//! The reference line path, and the differential properties that pin the
//! shipped rewrite to it.
//!
//! [`Anonymizer::anonymize_command_line`] takes two shortcuts: the rule
//! prefilter skips the context matcher on lines that provably cannot
//! fire a context rule, and the borrow-or-own rewrite allocates only for
//! tokens whose bytes change (DESIGN.md §17). The reference path takes
//! neither: it runs the full context matcher on every line, owns every
//! token, hashes its per-token fallback without the memo, and
//! reassembles the line densely. The properties below run a shipped and
//! a reference anonymizer in lockstep over every `Command` line of
//! generated and chaos-mutated corpora and demand the same bytes, the
//! same per-line statistics, and the same leak record and emitted
//! exclusions — in the discovery pass and in the emit pass.

use super::*;
use crate::input::sanitize_bytes;
use confanon_confgen::{generate_dataset, DatasetSpec};
use confanon_testkit::chaos::ChaosMutator;
use confanon_testkit::props::{any, pattern, Strategy};

impl Anonymizer {
    /// The reference for [`Anonymizer::anonymize_command_line`]: the
    /// full context matcher on every line, an owned `String` per token,
    /// and dense reassembly. Returns an empty string during discovery.
    fn reference_command_line(&mut self, line: &str, stats: &mut AnonymizationStats) -> String {
        let toks = tokenize(line);
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        stats.words_total += texts.len() as u64;
        let mut out: Vec<Option<String>> = vec![None; texts.len()];

        let lower: Vec<String> = texts.iter().map(|t| t.to_ascii_lowercase()).collect();
        let lref: Vec<&str> = lower.iter().map(String::as_str).collect();
        self.apply_context_rules(&lref, &texts, &mut out, stats);

        // Per-token pass for everything the context rules left alone.
        for (i, tok) in texts.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            out[i] = Some(self.anonymize_token(tok, stats));
        }

        if !self.emit {
            return String::new();
        }
        // With every slot filled, `rebuild_sparse` reassembles densely
        // (pinned against a dense assembler in iosparse's tests).
        assert!(out.iter().all(Option::is_some), "the per-token pass fills every slot");
        rebuild_sparse(line, &toks, &out).into_owned()
    }

    /// The reference for [`Anonymizer::rewrite_token`]: the same checks
    /// in the same order, always returning an owned token.
    fn anonymize_token(&mut self, tok: &str, stats: &mut AnonymizationStats) -> String {
        // R22/R24/R25: IPv4 literal.
        if let Ok(ip) = tok.parse::<Ip>() {
            if self.enabled(RuleId::R22Ipv4Literal) {
                let mapped = self.map_ip(ip, stats);
                return if self.emit {
                    mapped.to_string()
                } else {
                    String::new()
                };
            }
            return self.keep(tok);
        }
        // R23: prefix token `a.b.c.d/len`.
        if let Some((addr, len)) = tok.split_once('/') {
            if let (Ok(ip), Ok(len)) = (addr.parse::<Ip>(), len.parse::<u8>()) {
                if len <= 32 && self.enabled(RuleId::R23PrefixToken) {
                    stats.fire(RuleId::R23PrefixToken);
                    let mapped = self.map_ip(ip, stats);
                    return if self.emit {
                        format!("{mapped}/{len}")
                    } else {
                        String::new()
                    };
                }
                return self.keep(tok);
            }
        }
        // R14: bare community attribute — classic `asn:value` or RFC 8092
        // large `ga:d1:d2`.
        if self.enabled(RuleId::R14CommunityAttributeToken) {
            if let Some(mapped) = self.try_community(tok, stats) {
                stats.fire(RuleId::R14CommunityAttributeToken);
                return mapped;
            }
            if let Some(mapped) = self.large_community.map_token(tok) {
                stats.fire(RuleId::R14CommunityAttributeToken);
                stats.communities_mapped += 1;
                if let Some(ga) = tok.split(':').next() {
                    if ga.parse::<u32>().is_ok_and(confanon_asnanon::is_public32) {
                        self.record.asns.insert(ga.to_string());
                    }
                }
                for field in mapped.split(':') {
                    self.emitted.insert(field.to_string());
                }
                return mapped;
            }
        }
        // R22/R23 for IPv6 (post-paper extension): `2001:db8::1` and
        // `2001:db8::/32` tokens. Communities were ruled out above, so a
        // colon-bearing token that parses as IPv6 is one.
        if tok.contains(':') && self.enabled(RuleId::R22Ipv4Literal) {
            if let Ok(ip6) = tok.parse::<Ip6>() {
                let mapped = self.map_ip6(ip6, stats);
                return if self.emit {
                    mapped.to_string()
                } else {
                    String::new()
                };
            }
            if let Some((addr, len)) = tok.rsplit_once('/') {
                if let (Ok(ip6), Ok(len)) = (addr.parse::<Ip6>(), len.parse::<u8>()) {
                    if len <= 128 {
                        stats.fire(RuleId::R23PrefixToken);
                        let mapped = self.map_ip6(ip6, stats);
                        return if self.emit {
                            format!("{mapped}/{len}")
                        } else {
                            String::new()
                        };
                    }
                }
            }
        }
        // Simple integers are generally not anonymized (§4.1).
        if tok.bytes().all(|b| b.is_ascii_digit()) {
            return self.keep(tok);
        }
        // R01/R02/R26: segmentation, pass-list, hash.
        if !self.enabled(RuleId::R26TokenHashing) {
            return self.keep(tok);
        }
        let segs = segment(tok);
        if segs.len() > 1 {
            // R02: punctuation split the word into independently checked
            // segments (`cr1.lax.foo.com`, `Ethernet0/0`).
            stats.fire(RuleId::R02SplitPunctuation);
        }
        let mut outb = String::with_capacity(if self.emit { tok.len() } else { 0 });
        for seg in segs {
            match seg {
                Segment::Other(o) => {
                    if self.emit {
                        outb.push_str(o);
                    }
                }
                Segment::Alpha(a) => {
                    if self.cfg.pass_list.contains(a) {
                        stats.segments_passed += 1;
                        if self.emit {
                            outb.push_str(a);
                        }
                    } else {
                        stats.fire(RuleId::R26TokenHashing);
                        stats.segments_hashed += 1;
                        if self.enabled(RuleId::R28LeakHighlighting) {
                            self.record_alpha(a);
                        }
                        if self.emit {
                            outb.push_str(&self.hasher.hash_token(a));
                        }
                    }
                }
            }
        }
        stats.fire(RuleId::R01SplitAlphaRuns);
        outb
    }

    /// A token kept verbatim: cloned for emission, elided during
    /// discovery (the discovery pass discards all output text).
    fn keep(&self, tok: &str) -> String {
        if self.emit {
            tok.to_string()
        } else {
            String::new()
        }
    }
}

/// Runs a shipped and a reference anonymizer, both built from `cfg`, in
/// lockstep over every `Command` line of `files` (one corpus, one keyed
/// state): first a discovery pass over the whole corpus, then an emit
/// pass, as the batch pipeline runs them. Asserts equal output bytes and
/// per-line statistics after every line, and an equal leak record and
/// emitted-exclusion set at the end. Returns the number of lines
/// compared per pass.
fn assert_lockstep(cfg: &AnonymizerConfig, files: &[String]) -> usize {
    let mut shipped = Anonymizer::new(cfg.clone());
    let mut reference = Anonymizer::new(cfg.clone());
    let mut compared = 0;
    for emit in [false, true] {
        shipped.emit = emit;
        reference.emit = emit;
        compared = 0;
        for text in files {
            let lines: Vec<&str> = text.lines().collect();
            let kinds = classify_lines(&lines);
            for (line, kind) in lines.iter().zip(kinds) {
                if kind != LineKind::Command {
                    continue;
                }
                let (mut got_stats, mut want_stats) = Default::default();
                let got = shipped.anonymize_command_line(line, &mut got_stats);
                let want = reference.reference_command_line(line, &mut want_stats);
                assert_eq!(got, want, "emit={emit}: bytes diverged on {line:?}");
                assert_eq!(
                    got_stats, want_stats,
                    "emit={emit}: stats diverged on {line:?}"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(
        shipped.leak_record(),
        reference.leak_record(),
        "leak record diverged"
    );
    assert_eq!(
        shipped.emitted_exclusions(),
        reference.emitted_exclusions(),
        "emitted exclusions diverged"
    );
    compared
}

fn config(secret: u64) -> AnonymizerConfig {
    AnonymizerConfig::new(secret.to_be_bytes().to_vec())
}

/// Every router config of a generated dataset, in generation order.
fn dataset(spec: &DatasetSpec) -> Vec<String> {
    generate_dataset(spec)
        .networks
        .into_iter()
        .flat_map(|n| n.routers.into_iter().map(|r| r.config))
        .collect()
}

/// Hostile bytes through the same sanitizer the pipeline reads with.
fn mutated(mutator: &mut ChaosMutator, text: &str) -> String {
    sanitize_bytes(&mutator.mutate(text.as_bytes()).bytes).0
}

/// Strategy: a small config whose lines are biased toward the shapes the
/// rules care about (addresses, ASNs, hostnames, pass-list keywords).
fn config_text() -> impl Strategy<Value = String> {
    let line = || {
        (
            any::<u32>(),
            1u16..64000,
            pattern("[a-zA-Z][a-zA-Z0-9.-]{0,12}"),
            0u8..6,
        )
            .prop_map(|(raw, asn, word, shape)| {
                let ip = Ip(raw);
                match shape {
                    0 => format!(" neighbor {ip} remote-as {asn}"),
                    1 => format!("hostname {word}"),
                    2 => format!(" ip address {ip} 255.255.255.0"),
                    3 => format!(" description link to {word} via {ip}"),
                    4 => "interface Serial0/0".to_string(),
                    _ => format!(" snmp-server community {word} RO"),
                }
            })
    };
    (line(), line(), line(), line()).prop_map(|(a, b, c, d)| format!("{a}\n{b}\n{c}\n{d}\n"))
}

/// The configs chaos cases mutate (generated once per test binary).
fn chaos_base() -> &'static [String] {
    static BASE: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    BASE.get_or_init(|| {
        dataset(&DatasetSpec {
            seed: 0x2e20_c0de,
            networks: 1,
            mean_routers: 2,
            backbone_fraction: 0.5,
        })
    })
}

confanon_testkit::props! {
    cases = 256;

    /// The shipped line path matches the reference on generated configs.
    fn zero_copy_matches_reference_on_generated(text in config_text(), secret in any::<u64>()) {
        assert_lockstep(&config(secret), &[text]);
    }

    /// The same lockstep on one chaos-mutated config: hostile token
    /// shapes, torn lines, and banner debris must not open a gap either.
    fn zero_copy_matches_reference_on_chaos(seed in any::<u64>(), secret in any::<u64>()) {
        let base = chaos_base();
        let text = mutated(&mut ChaosMutator::new(seed), &base[seed as usize % base.len()]);
        assert_lockstep(&config(secret), &[text]);
    }
}

confanon_testkit::props! {
    cases = 4;

    /// The prefilter changes no byte and no rule fire versus running
    /// every line through the full context matcher, on a clean and a
    /// chaos-mutated multi-file corpus.
    fn prefilter_equals_full_matcher(seed in 0u64..1_000_000) {
        let clean = dataset(&DatasetSpec {
            seed: seed ^ 0x5EED_CAFE,
            networks: 1,
            mean_routers: 5,
            backbone_fraction: 0.5,
        });
        let mut mutator = ChaosMutator::new(seed);
        let chaos: Vec<String> = dataset(&DatasetSpec {
            seed: 0xDEAD_BEEF,
            networks: 1,
            mean_routers: 6,
            backbone_fraction: 0.5,
        })
        .iter()
        .map(|text| mutated(&mut mutator, text))
        .collect();
        let cfg = AnonymizerConfig::new(b"owner-secret".to_vec());
        for files in [clean, chaos] {
            assert_lockstep(&cfg, &files);
        }
    }
}

/// The CI smoke corpus (`confanon generate --networks 2 --routers 4
/// --seed 2004`) under the smoke secret, in the order `batch` reads it.
#[test]
fn smoke_corpus_matches_reference() {
    let mut files: Vec<(String, String)> = generate_dataset(&DatasetSpec {
        seed: 2004,
        networks: 2,
        mean_routers: 4,
        backbone_fraction: 0.35,
    })
    .networks
    .into_iter()
    .flat_map(|n| {
        n.routers
            .into_iter()
            .map(move |r| (format!("{}/{}.cfg", n.name, r.hostname), r.config))
    })
    .collect();
    files.sort();
    assert_eq!(files.len(), 9);
    let texts: Vec<String> = files.into_iter().map(|(_, text)| text).collect();
    let cfg = AnonymizerConfig::new(b"smoke-bench-secret".to_vec());
    assert!(assert_lockstep(&cfg, &texts) > 0);
}
