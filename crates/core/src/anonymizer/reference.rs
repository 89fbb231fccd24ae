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
//!
//! Both sides of that lockstep call the shipped `map_ip`, so it cannot
//! see a fault in the per-identifier bookkeeping. The bookkeeping
//! properties at the end check it against references that share none
//! of it: the journal formatted, images from a fresh trie replay, and
//! the replay-and-merge restore that warm starts used before they
//! adopted the stored sets.

use std::collections::BTreeMap;

use super::*;
use crate::batch::{BatchInput, BatchPipeline};
use crate::input::sanitize_bytes;
use crate::state::{file_marks, watermark, AnonState};
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
        // R23: prefix token `a.b.c.d/len`; a length past 32 falls through
        // to the compound-token pass.
        if let Some((addr, len)) = tok.split_once('/') {
            if let (Ok(ip), Ok(len)) = (addr.parse::<Ip>(), len.parse::<u8>()) {
                if !self.enabled(RuleId::R23PrefixToken) {
                    return self.keep(tok);
                }
                if len <= 32 {
                    stats.fire(RuleId::R23PrefixToken);
                    let mapped = self.map_ip(ip, stats);
                    return if self.emit {
                        format!("{mapped}/{len}")
                    } else {
                        String::new()
                    };
                }
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
        // R22 on the dotted quads inside a compound token, and
        // R01/R02/R26: segmentation, pass-list, hash.
        let hashing = self.enabled(RuleId::R26TokenHashing);
        let mapping = self.enabled(RuleId::R22Ipv4Literal);
        if !hashing && !mapping {
            return self.keep(tok);
        }
        let segs = segment(tok);
        if hashing && segs.len() > 1 {
            // R02: punctuation split the word into independently checked
            // segments (`cr1.lax.foo.com`, `Ethernet0/0`).
            stats.fire(RuleId::R02SplitPunctuation);
        }
        let mut outb = String::with_capacity(if self.emit { tok.len() } else { 0 });
        for seg in segs {
            match seg {
                Segment::Other(o) => {
                    let o = if mapping {
                        self.map_quads(o, stats)
                    } else {
                        o.to_string()
                    };
                    if self.emit {
                        outb.push_str(&o);
                    }
                }
                Segment::Alpha(a) if !hashing => {
                    if self.emit {
                        outb.push_str(a);
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
        if hashing {
            stats.fire(RuleId::R01SplitAlphaRuns);
        }
        outb
    }

    /// The reference for the dotted quads of a non-alphabetic segment:
    /// char by char, each maximal digit-and-dot run whose core (the run
    /// without its leading and trailing dots) parses as IPv4 has the core
    /// mapped, left to right, and everything else is kept.
    fn map_quads(&mut self, seg: &str, stats: &mut AnonymizationStats) -> String {
        let mut out = String::new();
        let mut run = String::new();
        // A trailing space ends the last run; it is popped below.
        for c in seg.chars().chain([' ']) {
            if c.is_ascii_digit() || c == '.' {
                run.push(c);
                continue;
            }
            let core = run.trim_matches('.');
            match core.parse::<Ip>() {
                Ok(ip) => {
                    let lead = run.len() - run.trim_start_matches('.').len();
                    out.push_str(&run[..lead]);
                    out.push_str(&self.map_ip(ip, stats).to_string());
                    out.push_str(&run[lead + core.len()..]);
                }
                Err(_) => out.push_str(&run),
            }
            run.clear();
            out.push(c);
        }
        out.pop();
        out
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
/// rules care about (addresses, also inside compound tokens, beside dots
/// and before an out-of-range prefix length, ASNs in asplain and asdot
/// and after `redistribute bgp`, hostnames, pass-list keywords).
fn config_text() -> impl Strategy<Value = String> {
    let line = || {
        (
            any::<u32>(),
            1u16..64000,
            pattern("[a-zA-Z][a-zA-Z0-9.-]{0,12}"),
            0u8..12,
        )
            .prop_map(|(raw, asn, word, shape)| {
                let ip = Ip(raw);
                match shape {
                    0 => format!(" neighbor {ip} remote-as {asn}"),
                    1 => format!("hostname {word}"),
                    2 => format!(" ip address {ip} 255.255.255.0"),
                    3 => format!(" description link to {word} via {ip}"),
                    4 => "interface Serial0/0".to_string(),
                    5 => format!("boot host tftp://{ip}/{word}"),
                    6 => format!(" set extcommunity rt {ip}:{asn} {word}{ip}"),
                    7 => format!("router bgp {}.{asn}", raw >> 16),
                    8 => format!("ip route {ip}/{} Null0", 20 + asn % 30),
                    9 => format!("logging .{ip}. ({ip}.) {ip}.{asn} {asn}.{ip}"),
                    10 => format!(" redistribute bgp {asn} subnets"),
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

    /// The shipped line path matches the reference on generated configs,
    /// with token hashing (R26) and address mapping (R22) each on or off.
    fn zero_copy_matches_reference_on_generated(
        text in config_text(),
        secret in any::<u64>(),
        ablate in 0u8..4,
    ) {
        let mut cfg = config(secret);
        for (bit, rule) in [(1, RuleId::R26TokenHashing), (2, RuleId::R22Ipv4Literal)] {
            if ablate & bit != 0 {
                cfg = cfg.without_rule(rule);
            }
        }
        assert_lockstep(&cfg, &[text]);
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

// ---- per-identifier bookkeeping ----------------------------------------

impl Anonymizer {
    /// The string-building replay: every journal entry walks its trie
    /// for its image, is journaled beside it if new, and formats its
    /// original into the record (R28) and its image into the emitted
    /// set, fresh or not.
    fn replay_journal_recording(&mut self, entries: &[ObservedIp]) {
        for &obs in entries {
            let (original, image) = match obs {
                ObservedIp::V4(ip) => {
                    let image = match self.cfg.ip_scheme {
                        IpScheme::StructurePreserving => self.ip.anonymize(ip),
                        IpScheme::Scramble => self.scramble.anonymize(ip),
                    };
                    if !self.journal.images4.contains_key(&ip.0) {
                        self.journal.push4(ip, image);
                    }
                    (ip.to_string(), image.to_string())
                }
                ObservedIp::V6(ip) => {
                    let image = self.ip6.anonymize(ip);
                    if !self.journal.images6.contains_key(&ip.0) {
                        self.journal.push6(ip, image);
                    }
                    (ip.to_string(), image.to_string())
                }
            };
            if self.enabled(RuleId::R28LeakHighlighting) {
                self.record.ips.insert(original);
            }
            self.emitted.insert(image);
        }
    }
}

/// The reference restore: replay with string work, then merge the
/// stored record and emitted set (what warm starts did before they
/// adopted the stored sets).
fn restore_by_merge(state: &AnonState, cfg: &AnonymizerConfig) -> Anonymizer {
    let mut a = Anonymizer::new(cfg.clone());
    a.replay_journal_recording(&state.journal);
    a.record.merge(&state.record);
    a.emitted.extend(state.emitted.iter().cloned());
    a
}

fn formatted(journal: &[ObservedIp]) -> BTreeSet<String> {
    journal.iter().map(ObservedIp::to_string).collect()
}

/// `a`'s emitted set holds the image of every journal entry, as a fresh
/// trie pair keyed like `cfg` computes it replaying the journal in order.
fn assert_images_emitted(a: &Anonymizer, cfg: &AnonymizerConfig, what: &str) {
    let mut t4 = IpAnonymizer::with_options(
        &cfg.owner_secret,
        !cfg.disabled_rules
            .contains(&RuleId::R24SubnetAddressPreserve),
    );
    let mut t6 = Ip6Anonymizer::new(&cfg.owner_secret);
    for obs in a.journal() {
        let image = match *obs {
            ObservedIp::V4(ip) => t4.anonymize(ip).to_string(),
            ObservedIp::V6(ip) => t6.anonymize(ip).to_string(),
        };
        assert!(
            a.emitted.contains(&image),
            "{what}: image {image} of {obs:?} not emitted"
        );
    }
}

/// The cold-run bookkeeping: with R28 on the record's addresses are
/// exactly the journal formatted, with it off there are none; and every
/// journaled image is emitted.
fn assert_cold_bookkeeping(a: &Anonymizer, cfg: &AnonymizerConfig, what: &str) {
    let want = if cfg.disabled_rules.contains(&RuleId::R28LeakHighlighting) {
        BTreeSet::new()
    } else {
        formatted(a.journal())
    };
    assert_eq!(a.leak_record().ips, want, "{what}: recorded addresses");
    assert_images_emitted(a, cfg, what);
}

fn with_r28(secret: &[u8], on: bool) -> AnonymizerConfig {
    let cfg = AnonymizerConfig::new(secret.to_vec());
    if on {
        cfg
    } else {
        cfg.without_rule(RuleId::R28LeakHighlighting)
    }
}

/// Cold runs at one and four jobs, then the corpus cut at `cut` and run
/// as two sessions, the state handed over as bytes, with R28 set per
/// session by `r28`. Checks every run's bookkeeping, the restore against
/// [`restore_by_merge`], and the warm end state against the cold one.
fn assert_bookkeeping(texts: &[String], cut: usize, r28: [bool; 2], jobs: usize) {
    let inputs: Vec<BatchInput> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| BatchInput {
            name: format!("f{i:03}.cfg"),
            text: text.clone(),
        })
        .collect();
    let secret = b"bookkeeping-secret";
    let (cfg1, cfg2) = (with_r28(secret, r28[0]), with_r28(secret, r28[1]));

    let mut cold = Vec::new();
    for j in [1, 4] {
        let mut p = BatchPipeline::new(cfg2.clone(), j);
        p.run(&inputs);
        assert_cold_bookkeeping(p.anonymizer(), &cfg2, &format!("cold --jobs {j}"));
        cold.push(p.into_anonymizer());
    }

    let mut s1 = BatchPipeline::new(cfg1.clone(), jobs);
    let report = s1.run(&inputs[..cut]);
    assert_cold_bookkeeping(s1.anonymizer(), &cfg1, "session 1");
    let marks: BTreeMap<String, String> = inputs[..cut]
        .iter()
        .map(|f| (f.name.clone(), watermark(&f.text)))
        .collect();
    let bytes = AnonState::capture(
        s1.anonymizer(),
        "fp".to_string(),
        file_marks(&report.discoveries, &marks),
    )
    .to_bytes();
    let state = AnonState::from_json_str("state.json", &String::from_utf8_lossy(&bytes))
        .expect("state parses");

    let mut s2 = BatchPipeline::new(cfg2.clone(), jobs);
    state
        .restore_into("state.json", s2.anonymizer_mut())
        .expect("restore");
    let (restored, oracle) = (s2.anonymizer(), restore_by_merge(&state, &cfg2));
    assert_eq!(restored.journal(), oracle.journal(), "restore: journal");
    assert_eq!(
        restored.trie_node_counts(),
        oracle.trie_node_counts(),
        "restore: nodes"
    );
    assert_eq!(
        restored.trie_digests(),
        oracle.trie_digests(),
        "restore: digests"
    );
    assert_eq!(
        restored.leak_record(),
        oracle.leak_record(),
        "restore: record"
    );
    assert_eq!(restored.emitted, oracle.emitted, "restore: emitted");

    let prewarmed = state
        .files
        .iter()
        .map(|(name, mark)| {
            let d = crate::batch::FileDiscovery {
                stats: mark.stats.clone(),
                prefilter_fast: mark.prefilter_fast,
                prefilter_slow: mark.prefilter_slow,
            };
            (name.clone(), d)
        })
        .collect();
    s2.run_incremental(&inputs, &BTreeSet::new(), &prewarmed);
    let warm = s2.anonymizer();
    assert_images_emitted(warm, &cfg2, "session 2");
    if r28[1] {
        assert_eq!(
            warm.leak_record().ips,
            formatted(warm.journal()),
            "session 2: recorded"
        );
    } else {
        assert_eq!(
            warm.leak_record().ips,
            state.record.ips,
            "session 2: recorded"
        );
    }
    if r28[0] == r28[1] {
        assert_eq!(warm.journal(), cold[0].journal(), "warm vs cold: journal");
        assert_eq!(
            warm.leak_record(),
            cold[0].leak_record(),
            "warm vs cold: record"
        );
        assert_eq!(warm.emitted, cold[0].emitted, "warm vs cold: emitted");
    }
    for other in &cold[1..] {
        assert_eq!(
            other.leak_record(),
            cold[0].leak_record(),
            "cold: record across jobs"
        );
        assert_eq!(other.emitted, cold[0].emitted, "cold: emitted across jobs");
    }
}

/// Every leak-highlighting toggle between two sessions, at one and four
/// jobs, on one fixed corpus: a state saved with R28 off and loaded with
/// it on is the case the restore's formatting fallback exists for.
#[test]
fn bookkeeping_holds_under_every_r28_toggle() {
    let texts = dataset(&DatasetSpec {
        seed: 2004,
        networks: 1,
        mean_routers: 3,
        backbone_fraction: 0.5,
    });
    assert!(texts.len() >= 2, "two sessions need two files");
    for r28 in [[false, true], [true, false], [true, true], [false, false]] {
        for jobs in [1, 4] {
            assert_bookkeeping(&texts, texts.len() / 2, r28, jobs);
        }
    }
}

confanon_testkit::props! {
    cases = 6;

    /// The bookkeeping holds on generated corpora, cold and split into
    /// two sessions, with leak-highlighting toggled between them.
    fn bookkeeping_holds_on_generated(seed in 0u64..1_000_000, cut in 0usize..8, r28 in 0u8..4) {
        let texts = dataset(&DatasetSpec {
            seed,
            networks: 1,
            mean_routers: 3,
            backbone_fraction: 0.5,
        });
        let cut = cut % (texts.len() + 1);
        let jobs = 1 + 3 * (seed as usize & 1);
        assert_bookkeeping(&texts, cut, [r28 & 1 == 0, r28 & 2 == 0], jobs);
    }

    /// The same on chaos-mutated corpora.
    fn bookkeeping_holds_on_chaos(seed in 0u64..1_000_000, cut in 0usize..8, r28 in 0u8..4) {
        let mut mutator = ChaosMutator::new(seed);
        let texts: Vec<String> =
            chaos_base().iter().map(|t| mutated(&mut mutator, t)).collect();
        let cut = cut % (texts.len() + 1);
        let jobs = 1 + 3 * (seed as usize & 1);
        assert_bookkeeping(&texts, cut, [r28 & 1 == 0, r28 & 2 == 0], jobs);
    }
}

// ---- journaled images and the bulk replay -------------------------------

/// Every journaled address's stored image equals two images computed
/// without the journal: a walk of a clone of `a`'s own trie (or its
/// scramble), and a fresh trie pair (or scramble) keyed like `a`
/// replaying `a.journal()` in order. The lockstep cannot see a wrong
/// stored image: both of its sides answer from the shipped journal.
fn assert_journal_images(a: &Anonymizer, what: &str) {
    let secret = &a.cfg.owner_secret;
    let (mut walk4, mut walk6) = (a.ip.clone(), a.ip6.clone());
    let mut fresh4 =
        IpAnonymizer::with_options(secret, a.enabled(RuleId::R24SubnetAddressPreserve));
    let mut fresh6 = Ip6Anonymizer::new(secret);
    let fresh_scramble = RandomScramble::new(secret);
    assert_eq!(
        a.journal.images4.len() + a.journal.images6.len(),
        a.journal().len(),
        "{what}: one image per journal entry"
    );
    for &obs in a.journal() {
        let stored = a.journal.image(obs);
        let (walked, replayed) = match obs {
            ObservedIp::V4(ip) => {
                let (w, r) = match a.cfg.ip_scheme {
                    IpScheme::StructurePreserving => (walk4.anonymize(ip), fresh4.anonymize(ip)),
                    IpScheme::Scramble => (a.scramble.anonymize(ip), fresh_scramble.anonymize(ip)),
                };
                (ObservedIp::V4(w), ObservedIp::V4(r))
            }
            ObservedIp::V6(ip) => (
                ObservedIp::V6(walk6.anonymize(ip)),
                ObservedIp::V6(fresh6.anonymize(ip)),
            ),
        };
        assert_eq!(stored, Some(walked), "{what}: {obs:?} against its trie");
        assert_eq!(
            stored,
            Some(replayed),
            "{what}: {obs:?} against a fresh replay"
        );
    }
}

fn batch_inputs(texts: &[String]) -> Vec<BatchInput> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| BatchInput {
            name: format!("f{i:03}.cfg"),
            text: text.clone(),
        })
        .collect()
}

/// Session 1 over `inputs[..cut]` under `cfg1`, its state handed over as
/// bytes, then session 2 under `cfg2` over all of `inputs` with the
/// stored files prewarmed. Returns the parsed state and session 2.
fn warm_session(
    cfg1: &AnonymizerConfig,
    cfg2: &AnonymizerConfig,
    inputs: &[BatchInput],
    cut: usize,
    jobs: usize,
) -> (AnonState, BatchPipeline) {
    let mut s1 = BatchPipeline::new(cfg1.clone(), jobs);
    let report = s1.run(&inputs[..cut]);
    let marks: BTreeMap<String, String> = inputs[..cut]
        .iter()
        .map(|f| (f.name.clone(), watermark(&f.text)))
        .collect();
    let bytes = AnonState::capture(
        s1.anonymizer(),
        "fp".to_string(),
        file_marks(&report.discoveries, &marks),
    )
    .to_bytes();
    let state = AnonState::from_json_str("state.json", &String::from_utf8_lossy(&bytes))
        .expect("state parses");
    let mut s2 = BatchPipeline::new(cfg2.clone(), jobs);
    state
        .restore_into("state.json", s2.anonymizer_mut())
        .expect("restore");
    let prewarmed = state
        .files
        .iter()
        .map(|(name, mark)| {
            let d = crate::batch::FileDiscovery {
                stats: mark.stats.clone(),
                prefilter_fast: mark.prefilter_fast,
                prefilter_slow: mark.prefilter_slow,
            };
            (name.clone(), d)
        })
        .collect();
    s2.run_incremental(inputs, &BTreeSet::new(), &prewarmed);
    (state, s2)
}

/// The four address-mapping configurations: the default, the scramble
/// scheme, and subnet-address preservation (R24) or special-address
/// passthrough (R25) disabled.
fn mapping_config(variant: u8) -> AnonymizerConfig {
    let cfg = AnonymizerConfig::new(b"journal-image-secret".to_vec());
    match variant % 4 {
        0 => cfg,
        1 => AnonymizerConfig {
            ip_scheme: IpScheme::Scramble,
            ..cfg
        },
        2 => cfg.without_rule(RuleId::R24SubnetAddressPreserve),
        _ => cfg.without_rule(RuleId::R25SpecialAddressPassthrough),
    }
}

/// Cold runs at one and four jobs and a warm run through state bytes
/// (the corpus cut at `cut`) all store the images their tries give.
fn assert_journal_images_hold(cfg: &AnonymizerConfig, texts: &[String], cut: usize) {
    let inputs = batch_inputs(texts);
    for jobs in [1, 4] {
        let mut p = BatchPipeline::new(cfg.clone(), jobs);
        p.run(&inputs);
        assert_journal_images(p.anonymizer(), &format!("cold --jobs {jobs}"));
    }
    let (_, warm) = warm_session(cfg, cfg, &inputs, cut, 1);
    assert_journal_images(warm.anonymizer(), "warm");
}

#[test]
fn journal_images_hold_under_every_mapping_config() {
    let mut texts = dataset(&DatasetSpec {
        seed: 2004,
        networks: 1,
        mean_routers: 3,
        backbone_fraction: 0.5,
    });
    texts.push(
        "hostname v6\ninterface Gi0/0\n ipv6 address 2400:bb5:1ff5::1/64\n\
         ipv6 route 2400:cb00::/32 2400:bb5:1ff5::2\n"
            .to_string(),
    );
    let mut p = BatchPipeline::new(mapping_config(0), 1);
    p.run(&batch_inputs(&texts));
    let journal = p.anonymizer().journal();
    assert!(journal.iter().any(|o| matches!(o, ObservedIp::V4(_))));
    assert!(journal.iter().any(|o| matches!(o, ObservedIp::V6(_))));
    for variant in 0..4 {
        assert_journal_images_hold(&mapping_config(variant), &texts, texts.len() / 2);
    }
}

impl Anonymizer {
    /// The per-address replay the bulk [`Anonymizer::replay_observed`]
    /// replaced: each fresh address files its original and its image
    /// with one insert each, as it is mapped.
    fn replay_observed_per_address(&mut self, observed: Vec<ObservedIp>) {
        for obs in observed {
            if let Some(image) = self.journal_fresh(obs) {
                self.record_fresh(obs, image);
            }
        }
    }
}

/// Observes `inputs[from..]` (at their corpus indices) as discovery's
/// first shard does and returns the canonical replay order, leaving `a`
/// where the replay starts.
fn observe_from(a: &mut Anonymizer, inputs: &[BatchInput], from: usize) -> Vec<ObservedIp> {
    a.start_observing();
    for (i, f) in inputs.iter().enumerate().skip(from) {
        a.observe_file(i as u64, &f.text);
    }
    a.stop_observing().into_canonical_order()
}

/// `shipped` and `reference` hold the same journal, tries, leak record
/// and emitted set.
fn assert_same_bookkeeping(shipped: &Anonymizer, reference: &Anonymizer, what: &str) {
    assert_eq!(shipped.journal(), reference.journal(), "{what}: journal");
    assert_eq!(
        shipped.trie_digests(),
        reference.trie_digests(),
        "{what}: tries"
    );
    assert_eq!(
        shipped.leak_record(),
        reference.leak_record(),
        "{what}: record"
    );
    assert_eq!(shipped.emitted, reference.emitted, "{what}: emitted");
}

/// The bulk replay files the same strings as the per-address reference:
/// from one pre-replay state directly, and through the pipeline, cold
/// (every file observed) and warm (a restored state's non-empty sets,
/// its files prewarmed and the rest observed), with R28 set per session
/// by `r28`.
fn assert_bulk_replay(texts: &[String], cut: usize, r28: [bool; 2], jobs: usize) {
    let inputs = batch_inputs(texts);
    let secret = b"bulk-replay-secret";
    let (cfg1, cfg2) = (with_r28(secret, r28[0]), with_r28(secret, r28[1]));

    let mut before = Anonymizer::new(cfg2.clone());
    let observed = observe_from(&mut before, &inputs, 0);
    let (mut bulk, mut reference) = (before.clone(), before);
    bulk.replay_observed(observed.clone());
    reference.replay_observed_per_address(observed);
    assert_same_bookkeeping(&bulk, &reference, "cold replay");
    let mut p = BatchPipeline::new(cfg2.clone(), jobs);
    p.run(&inputs);
    assert_same_bookkeeping(p.anonymizer(), &reference, "cold pipeline");

    let (state, warm) = warm_session(&cfg1, &cfg2, &inputs, cut, jobs);
    let mut before = Anonymizer::new(cfg2.clone());
    state
        .restore_into("state.json", &mut before)
        .expect("restore");
    let observed = observe_from(&mut before, &inputs, cut);
    let (mut bulk, mut reference) = (before.clone(), before);
    bulk.replay_observed(observed.clone());
    reference.replay_observed_per_address(observed);
    assert_same_bookkeeping(&bulk, &reference, "warm replay");
    assert_same_bookkeeping(warm.anonymizer(), &reference, "warm pipeline");
}

#[test]
fn bulk_replay_matches_per_address_under_every_r28_toggle() {
    let texts = dataset(&DatasetSpec {
        seed: 2004,
        networks: 1,
        mean_routers: 3,
        backbone_fraction: 0.5,
    });
    for r28 in [[false, true], [true, false], [true, true], [false, false]] {
        for (cut, jobs) in [(texts.len() / 2, 1), (texts.len() - 1, 4)] {
            assert_bulk_replay(&texts, cut, r28, jobs);
        }
    }
}

confanon_testkit::props! {
    cases = 6;

    /// Journal images hold on generated corpora under a random mapping
    /// configuration.
    fn journal_images_hold_on_generated(seed in 0u64..1_000_000, cut in 0usize..8, variant in 0u8..4) {
        let texts = dataset(&DatasetSpec {
            seed,
            networks: 1,
            mean_routers: 3,
            backbone_fraction: 0.5,
        });
        let cut = cut % (texts.len() + 1);
        assert_journal_images_hold(&mapping_config(variant), &texts, cut);
    }

    /// The same on chaos-mutated corpora.
    fn journal_images_hold_on_chaos(seed in 0u64..1_000_000, cut in 0usize..8, variant in 0u8..4) {
        let mut mutator = ChaosMutator::new(seed);
        let texts: Vec<String> =
            chaos_base().iter().map(|t| mutated(&mut mutator, t)).collect();
        let cut = cut % (texts.len() + 1);
        assert_journal_images_hold(&mapping_config(variant), &texts, cut);
    }

    /// The bulk replay matches the per-address one on generated corpora,
    /// cold and split into two sessions, with R28 toggled between them.
    fn bulk_replay_matches_per_address_on_generated(seed in 0u64..1_000_000, cut in 0usize..8, r28 in 0u8..4) {
        let texts = dataset(&DatasetSpec {
            seed,
            networks: 1,
            mean_routers: 3,
            backbone_fraction: 0.5,
        });
        let cut = cut % (texts.len() + 1);
        let jobs = 1 + 3 * (seed as usize & 1);
        assert_bulk_replay(&texts, cut, [r28 & 1 == 0, r28 & 2 == 0], jobs);
    }
}
